"""Tests for the whole-program analysis layer: project graph, CFG
dominance, the interprocedural rules RPR005, RPR006 and RPR008, the
summary cache, and ``--diff`` scoping."""

from __future__ import annotations

import ast
import dataclasses
import json
import textwrap
from pathlib import Path

from repro.analysis import AnalysisEngine, DEFAULT_CONFIG
from repro.analysis.__main__ import main
from repro.analysis.graph.cfg import ControlFlowGraph
from repro.analysis.graph.project import ProjectGraph, element_type, strip_wrappers
from repro.analysis.graph.summary import build_summary, expr_chain
from repro.analysis.source import ModuleSource

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_ROOT = REPO_ROOT / "tests" / "analysis_fixtures"

#: Whole-program config pointed at the fixture packages: badpkg's
#: ingest/gate/lifecycle/quarantine shapes violate RPR005, RPR006 and
#: RPR008 on purpose, goodpkg's are clean.
GRAPH_CONFIG = dataclasses.replace(
    DEFAULT_CONFIG,
    dac_sink_allowed_modules=("tests.analysis_fixtures",),
    guard_hook_allowed_modules=("tests.analysis_fixtures",),
    ingest_entry_points=(
        "tests.analysis_fixtures.badpkg.ingestion.FeedRouter.ingest",
        # An entry that is itself a gate: the reachability walk skips it.
        "tests.analysis_fixtures.goodpkg.guarded.GatedBoard.fd_write",
    ),
    safety_gate_functions=(
        "tests.analysis_fixtures.badpkg.ingestion.GateKeeper.vet",
    ),
    lifecycle_scope=(
        "tests.analysis_fixtures.badpkg.lifecycle",
        "tests.analysis_fixtures.goodpkg",
    ),
    quarantine_scope=(
        "tests.analysis_fixtures.badpkg.quarantine",
        "tests.analysis_fixtures.badpkg.wireops",
    ),
    integrity_error_names=("FrameIntegrityError", "FrameCorruptionError"),
    integrity_fallback_modules=(),
)


def run_graph(*names: str, config=GRAPH_CONFIG, **kwargs):
    engine = AnalysisEngine(config=config)
    paths = [FIXTURE_ROOT / name for name in names]
    return engine.analyze_paths(paths, display_root=REPO_ROOT, **kwargs)


def rule_lines(findings):
    return sorted((f.rule_id, f.line) for f in findings)


# ---------------------------------------------------------------------------
# RPR005, RPR006 and RPR008 over the fixture packages — exact ids and lines
# ---------------------------------------------------------------------------


def test_rpr005_ingestion_fixture():
    result = run_graph("badpkg/ingestion.py")
    assert rule_lines(result.findings) == [
        ("RPR005", 15),  # Driver.emit sink, reachable ungated from ingest
        ("RPR005", 36),  # GateKeeper.sloppy latches before its guard call
    ]
    reach, dominance = result.findings
    assert "without a detector gate" in reach.message
    assert (
        "FeedRouter.ingest -> tests.analysis_fixtures.badpkg.ingestion."
        "Relay.forward -> tests.analysis_fixtures.badpkg.ingestion."
        "Driver.emit" in reach.message
    )
    assert "not dominated by the detector gate call" in dominance.message


def test_rpr006_lifecycle_fixture():
    result = run_graph("badpkg/lifecycle.py")
    assert rule_lines(result.findings) == [
        ("RPR006", 10),  # dropped: missing from snapshot/restore
        ("RPR006", 10),  # dropped: missing from reset too
        ("RPR006", 11),  # cursor: checkpointed but missing from reset
    ]
    messages = sorted(f.message for f in result.findings)
    assert "'cursor'" in messages[0] and "reset()" in messages[0]
    assert "'dropped'" in messages[1] and "reset()" in messages[1]
    assert "'dropped'" in messages[2] and "restore()/snapshot()" in messages[2]
    # depth (derived from a parameter) and _obs_hook (wiring glob) are
    # exempt — no findings on lines 8 or 12.


def test_rpr008_quarantine_fixture():
    result = run_graph("badpkg/quarantine.py")
    assert rule_lines(result.findings) == [
        ("RPR008", 21),  # broad except: pass inside the lane loop
        ("RPR008", 27),  # StoreError (ancestor of the integrity error)
    ]
    broad, integrity = result.findings
    assert "swallows lane-path exceptions" in broad.message
    assert "swallows integrity error 'StoreError'" in integrity.message
    # isolated() routes to self.faults (a quarantine sink) and reread()
    # re-raises — neither is reported.


def test_rpr008_wireops_fixture():
    """The service-boundary shape: connection handlers must journal or
    re-raise, exactly like the lane handlers (``repro.service.worker``
    is held to this in-tree)."""
    result = run_graph("badpkg/wireops.py")
    assert rule_lines(result.findings) == [
        ("RPR008", 21),  # broad except: pass inside the connection loop
        ("RPR008", 27),  # WireError (ancestor of the corruption error)
    ]
    broad, integrity = result.findings
    assert "swallows lane-path exceptions" in broad.message
    assert "swallows integrity error 'WireError'" in integrity.message
    # dispatch() routes to self.faults (the worker fault journal — a
    # quarantine sink) and reframe() re-raises — neither is reported.


def test_goodpkg_guarded_is_clean():
    result = run_graph("goodpkg/guarded.py")
    assert result.findings == []
    assert result.suppressed == []


def test_project_rule_findings_are_suppressible(tmp_path):
    src = tmp_path / "laneops.py"
    src.write_text(
        textwrap.dedent(
            """
            def sweep(lanes):
                for lane in lanes:
                    try:
                        lane.step()
                    except Exception:  # repro: allow[RPR008]
                        pass
            """
        )
    )
    config = dataclasses.replace(DEFAULT_CONFIG, quarantine_scope=("laneops",))
    result = AnalysisEngine(config=config).analyze_paths(
        [src], display_root=tmp_path
    )
    assert result.findings == []
    assert rule_lines(result.suppressed) == [("RPR008", 6)]


def test_src_tree_has_no_rpr005_findings():
    """The acceptance bar: no un-waived safety-path findings in-tree."""
    engine = AnalysisEngine()
    result = engine.analyze_paths([REPO_ROOT / "src"], display_root=REPO_ROOT)
    assert [f.format() for f in result.findings if f.rule_id == "RPR005"] == []


# ---------------------------------------------------------------------------
# CFG construction and dominance
# ---------------------------------------------------------------------------


def _cfg(src: str) -> ControlFlowGraph:
    fn = ast.parse(textwrap.dedent(src)).body[0]
    return ControlFlowGraph.build(fn)


def _site(cfg: ControlFlowGraph, name: str):
    for call in cfg.calls():
        chain = expr_chain(call.func)
        if chain and chain[-1] == name:
            return cfg.call_site(call)
    raise AssertionError(f"no call through {name!r}")


def test_cfg_same_block_ordering():
    cfg = _cfg(
        """
        def f(guard, sink):
            guard()
            sink()
        """
    )
    assert cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))
    assert not cfg.dominates(_site(cfg, "sink"), _site(cfg, "guard"))


def test_cfg_if_test_dominates_both_branches():
    cfg = _cfg(
        """
        def f(guard, sink, other):
            if guard():
                sink()
            else:
                other()
        """
    )
    assert cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))
    assert cfg.dominates(_site(cfg, "guard"), _site(cfg, "other"))


def test_cfg_branch_does_not_dominate_join():
    cfg = _cfg(
        """
        def f(cond, guard, sink):
            if cond:
                guard()
            sink()
        """
    )
    assert not cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))


def test_cfg_loop_body_does_not_dominate_exit():
    cfg = _cfg(
        """
        def f(items, guard, sink):
            for item in items:
                guard()
            sink()
        """
    )
    assert not cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))


def test_cfg_preheader_dominates_loop_body():
    cfg = _cfg(
        """
        def f(items, guard, sink):
            guard()
            for item in items:
                sink()
        """
    )
    assert cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))


def test_cfg_try_body_does_not_dominate_handler():
    """Any try-body statement may raise before the gate runs."""
    cfg = _cfg(
        """
        def f(guard, sink):
            try:
                guard()
            except ValueError:
                sink()
        """
    )
    assert not cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))


def test_cfg_dead_code_is_vacuously_dominated():
    """Unreachable sinks keep the full dominator set — never reported."""
    cfg = _cfg(
        """
        def f(cond, guard, sink):
            if cond:
                guard()
            return None
            sink()
        """
    )
    assert cfg.dominates(_site(cfg, "guard"), _site(cfg, "sink"))


# ---------------------------------------------------------------------------
# Chains and call resolution through the project graph
# ---------------------------------------------------------------------------


def test_expr_chain_markers():
    def chain_of(src: str):
        call = ast.parse(src, mode="eval").body
        assert isinstance(call, ast.Call)
        return expr_chain(call.func)

    assert chain_of("self.lanes[i].guard.evaluate(x)") == [
        "self", "lanes", "[]", "guard", "evaluate",
    ]
    assert chain_of("store().save(x)") == ["store", "()", "save"]
    assert chain_of("(a or b).save(x)") is None


def test_annotation_helpers():
    assert strip_wrappers("Optional['Lane']") == "Lane"
    assert strip_wrappers('typing.Final["Lane"]') == "Lane"
    assert element_type("Dict[str, Lane]") == "Lane"
    assert element_type("List[Lane]") == "Lane"
    assert element_type("Lane") is None


def _graph_for(tmp_path: Path, sources):
    summaries = {}
    for name, src in sources.items():
        path = tmp_path / f"{name}.py"
        path.write_text(textwrap.dedent(src))
        module = ModuleSource.load(path, display_root=tmp_path)
        summaries[module.module] = build_summary(module, DEFAULT_CONFIG)
    return ProjectGraph(summaries)


def test_resolve_call_through_self_params_and_containers(tmp_path):
    graph = _graph_for(
        tmp_path,
        {
            "planes": """
            from typing import Dict

            class Lane:
                def step(self):
                    return 1

            class Pool:
                def __init__(self, lanes: "Dict[str, Lane]", first: "Lane"):
                    self.lanes = lanes
                    self.first = first

                def lookup(self, key):
                    return self.lanes[key].step()

                def direct(self):
                    return self.first.step()

            def make_lane() -> "Lane":
                return Lane()

            def churn():
                return make_lane().step()

            def fresh():
                return Lane().step()
            """
        },
    )
    resolve = graph.resolve_call
    # self attr → Dict value type → [] → method
    assert (
        resolve("planes", "Pool.lookup", ["self", "lanes", "[]", "step"])
        == "planes.Lane.step"
    )
    # self attr typed by the parameter annotation it was assigned from
    assert (
        resolve("planes", "Pool.direct", ["self", "first", "step"])
        == "planes.Lane.step"
    )
    # function return annotation, then method
    assert (
        resolve("planes", "churn", ["make_lane", "()", "step"])
        == "planes.Lane.step"
    )
    # constructor call stays on the class, then method
    assert (
        resolve("planes", "fresh", ["Lane", "()", "step"])
        == "planes.Lane.step"
    )
    # unresolvable chains are silent, not wrong
    assert resolve("planes", "fresh", ["mystery", "()", "step"]) is None


def test_resolve_type_and_reverse_imports_across_modules(tmp_path):
    graph = _graph_for(
        tmp_path,
        {
            "gadgets": """
            class Widget:
                def poke(self):
                    return 1
            """,
            "uses": """
            from gadgets import Widget

            def handle(w: "Widget"):
                return w.poke()
            """,
            "bystander": """
            def idle():
                return 0
            """,
        },
    )
    assert graph.resolve_type("uses", "Widget") == "gadgets.Widget"
    assert (
        graph.resolve_call("uses", "handle", ["w", "poke"])
        == "gadgets.Widget.poke"
    )
    assert graph.importers_of({"gadgets"}) == {"gadgets", "uses"}
    assert graph.importers_of({"bystander"}) == {"bystander"}


# ---------------------------------------------------------------------------
# Summary cache: warm runs parse nothing, edits invalidate one file
# ---------------------------------------------------------------------------


def _seed_tree(tmp_path: Path) -> Path:
    src = tmp_path / "proj"
    src.mkdir()
    (src / "alpha.py").write_text("def f(board, v):\n    board._latch(v)\n")
    (src / "beta.py").write_text("def g():\n    return 1\n")
    return src


_NO_SINKS = dataclasses.replace(DEFAULT_CONFIG, dac_sink_allowed_modules=())


def test_cache_warm_run_parses_nothing(tmp_path):
    src = _seed_tree(tmp_path)
    cache = tmp_path / "cache"
    cold = AnalysisEngine(config=_NO_SINKS, cache_dir=cache).analyze_paths(
        [src], display_root=tmp_path
    )
    assert sorted(cold.parsed) == ["proj/alpha.py", "proj/beta.py"]
    assert cold.from_cache == 0
    warm = AnalysisEngine(config=_NO_SINKS, cache_dir=cache).analyze_paths(
        [src], display_root=tmp_path
    )
    assert warm.parsed == []
    assert warm.from_cache == 2
    assert [f.to_dict() for f in warm.findings] == [
        f.to_dict() for f in cold.findings
    ]


def test_cache_edit_invalidates_only_the_edited_file(tmp_path):
    src = _seed_tree(tmp_path)
    cache = tmp_path / "cache"
    AnalysisEngine(config=_NO_SINKS, cache_dir=cache).analyze_paths(
        [src], display_root=tmp_path
    )
    (src / "beta.py").write_text("def g():\n    return 2\n")
    result = AnalysisEngine(config=_NO_SINKS, cache_dir=cache).analyze_paths(
        [src], display_root=tmp_path
    )
    assert result.parsed == ["proj/beta.py"]
    assert result.from_cache == 1


def test_cache_config_change_invalidates_everything(tmp_path):
    src = _seed_tree(tmp_path)
    cache = tmp_path / "cache"
    AnalysisEngine(config=_NO_SINKS, cache_dir=cache).analyze_paths(
        [src], display_root=tmp_path
    )
    result = AnalysisEngine(config=DEFAULT_CONFIG, cache_dir=cache).analyze_paths(
        [src], display_root=tmp_path
    )
    assert sorted(result.parsed) == ["proj/alpha.py", "proj/beta.py"]
    assert result.from_cache == 0


def test_cache_disabled_by_default(tmp_path):
    src = _seed_tree(tmp_path)
    engine = AnalysisEngine(config=_NO_SINKS)
    engine.analyze_paths([src], display_root=tmp_path)
    result = engine.analyze_paths([src], display_root=tmp_path)
    assert sorted(result.parsed) == ["proj/alpha.py", "proj/beta.py"]
    assert result.from_cache == 0


# ---------------------------------------------------------------------------
# --diff scoping: changed files plus transitive reverse importers
# ---------------------------------------------------------------------------


def test_diff_scope_includes_reverse_importers(tmp_path):
    (tmp_path / "core.py").write_text(
        "def f(board, v):\n    board._latch(v)\n"
    )
    (tmp_path / "uses.py").write_text(
        "import core\n\n\ndef g(board, v):\n    board._latch(v)\n"
    )
    (tmp_path / "other.py").write_text(
        "def h(board, v):\n    board._latch(v)\n"
    )
    engine = AnalysisEngine(config=_NO_SINKS)
    full = engine.analyze_paths([tmp_path], display_root=tmp_path)
    assert sorted(f.module for f in full.findings) == ["core", "other", "uses"]
    assert full.scope is None

    narrowed = engine.analyze_paths(
        [tmp_path], display_root=tmp_path, diff=[tmp_path / "core.py"]
    )
    assert narrowed.scope == ["core", "uses"]
    assert sorted(f.module for f in narrowed.findings) == ["core", "uses"]
    # The whole tree was still analyzed — only reporting narrowed.
    assert narrowed.files_scanned == 3


# ---------------------------------------------------------------------------
# CLI: --sarif, --diff, and warm/cold byte-identity
# ---------------------------------------------------------------------------


def test_cli_sarif_artifact(tmp_path, capsys):
    sarif = tmp_path / "analysis.sarif"
    baseline = tmp_path / "baseline.json"
    code = main(
        [
            str(FIXTURE_ROOT / "badpkg" / "actuation.py"),
            "--sarif",
            str(sarif),
            "--baseline",
            str(baseline),
            "--no-cache",
        ]
    )
    assert code == 0
    capsys.readouterr()
    doc = json.loads(sarif.read_text(encoding="utf-8"))
    assert doc["version"] == "2.1.0"
    results = doc["runs"][0]["results"]
    assert results
    assert all(r["ruleId"] == "RPR001" for r in results)
    assert all("reproAnalysis/v1" in r["partialFingerprints"] for r in results)
    rule_ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
    assert rule_ids == ["RPR001"]


def test_cli_diff_narrows_report(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    args = [
        str(FIXTURE_ROOT / "badpkg"),
        "--json",
        "--no-cache",
        "--baseline",
        str(baseline),
    ]
    assert main(args) == 0
    full = json.loads(capsys.readouterr().out)
    full_modules = {f["module"] for f in full["new"]}
    assert "tests.analysis_fixtures.badpkg.poolwork" in full_modules

    changed = str(FIXTURE_ROOT / "badpkg" / "actuation.py")
    assert main(args + ["--diff", changed]) == 0
    narrowed = json.loads(capsys.readouterr().out)
    assert {f["module"] for f in narrowed["new"]} == {
        "tests.analysis_fixtures.badpkg.actuation"
    }


def test_cli_diff_bad_revision_is_usage_error(tmp_path, capsys):
    code = main(
        [
            str(FIXTURE_ROOT / "goodpkg"),
            "--no-cache",
            "--baseline",
            str(tmp_path / "baseline.json"),
            "--diff",
            "definitely-not-a-rev",
        ]
    )
    assert code == 2
    assert "neither a file nor a resolvable git revision" in (
        capsys.readouterr().err
    )


def test_cli_reports_are_byte_identical_cold_and_warm(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    args = [
        str(FIXTURE_ROOT / "badpkg"),
        "--json",
        "--cache-dir",
        str(tmp_path / "cache"),
        "--baseline",
        str(baseline),
    ]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert cold == warm
