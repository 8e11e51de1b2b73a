"""Call-graph construction: resolution, roots, reachability, ordering."""

from __future__ import annotations

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.callgraph import (
    MODULE_SCOPE,
    CallGraph,
    build_callgraph,
    module_name_for,
    parse_module_source,
    parse_modules,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def graph_of(sources: dict) -> CallGraph:
    modules = {
        name: parse_module_source(name, f"{name.replace('.', '/')}.py", text)
        for name, text in sources.items()
    }
    return build_callgraph(modules)


class TestResolution:
    def test_same_module_call_edge(self):
        graph = graph_of({"m": "def helper():\n    pass\n\ndef top():\n    helper()\n"})
        assert "m:helper" in graph.edges["m:top"]

    def test_from_import_edge(self):
        graph = graph_of(
            {
                "a": "def f():\n    pass\n",
                "b": "from a import f\n\ndef g():\n    f()\n",
            }
        )
        assert graph.edges["b:g"] == ("a:f",)

    def test_import_alias_attribute_edge(self):
        graph = graph_of(
            {
                "pkg.util": "def f():\n    pass\n",
                "c": "import pkg.util as u\n\ndef g():\n    u.f()\n",
            }
        )
        assert graph.edges["c:g"] == ("pkg.util:f",)

    def test_method_call_links_every_same_named_function(self):
        graph = graph_of(
            {
                "x": "class A:\n    def run(self):\n        pass\n",
                "y": "class B:\n    def run(self):\n        pass\n",
                "z": "def go(obj):\n    obj.run()\n",
            }
        )
        assert set(graph.edges["z:go"]) == {"x:A.run", "y:B.run"}

    def test_bare_reference_counts_as_edge(self):
        graph = graph_of(
            {"m": "def cb():\n    pass\n\ndef reg():\n    handlers = [cb]\n"}
        )
        assert "m:cb" in graph.edges["m:reg"]

    def test_nested_function_linked_from_encloser(self):
        graph = graph_of(
            {"m": "def outer():\n    def inner():\n        pass\n    return 1\n"}
        )
        assert "m:outer.inner" in graph.edges["m:outer"]

    def test_module_scope_edges(self):
        graph = graph_of({"m": "def f():\n    pass\n\nVALUE = f()\n"})
        assert "m:f" in graph.edges[f"m:{MODULE_SCOPE}"]

    def test_relative_import_resolves(self):
        graph = graph_of(
            {
                "pkg.io": "def canon():\n    pass\n",
                "pkg.core": "from .io import canon\n\ndef g():\n    canon()\n",
            }
        )
        # relative import: pkg.core is a module (not a package), one level up
        assert graph.edges["pkg.core:g"] == ("pkg.io:canon",)


class TestRootsAndReachability:
    def test_canonical_producer_is_a_root(self):
        graph = graph_of(
            {
                "m": (
                    "def leaf():\n    pass\n\n"
                    "def canonical_json(x):\n    leaf()\n\n"
                    "def unrelated():\n    pass\n"
                )
            }
        )
        assert "m:canonical_json" in graph.roots()
        reach = graph.reachable()
        assert "m:leaf" in reach
        assert "m:unrelated" not in reach

    def test_cell_registration_is_a_root(self):
        graph = graph_of(
            {
                "m": (
                    "def my_cell(params):\n    return params\n\n"
                    "SPEC = ExperimentSpec(name='x', cell_function=my_cell)\n"
                )
            }
        )
        assert graph.cell_functions() == ("m:my_cell",)
        assert "m:my_cell" in graph.roots()

    def test_lambda_registration_recorded_without_qualname(self):
        graph = graph_of(
            {"m": "SPEC = ExperimentSpec(name='x', cell_function=lambda p: p)\n"}
        )
        (registration,) = graph.registrations
        assert registration.kind == "lambda"
        assert registration.qualname is None

    def test_set_annotation_collected(self):
        graph = graph_of(
            {
                "m": (
                    "from typing import FrozenSet\n\n"
                    "class S:\n    active: FrozenSet[str]\n"
                )
            }
        )
        assert "active" in graph.set_attrs


class TestRepoTree:
    def repo_graph(self):
        files = sorted((SRC / "repro").rglob("*.py"))
        return build_callgraph(parse_modules(files, SRC))

    def test_repo_graph_has_expected_roots(self):
        graph = self.repo_graph()
        roots = graph.roots()
        assert "repro.io:canonical_json" in roots
        assert any(q.endswith(":runtime_cell") for q in roots)

    def test_scenario_energy_is_reachable(self):
        # the PR 4 bug site must be covered by the canonical reach set
        graph = self.repo_graph()
        assert (
            "repro.scheduling.schedule:Schedule.scenario_energy"
            in graph.reachable()
        )

    def test_module_names(self):
        assert (
            module_name_for(SRC / "repro" / "check" / "__init__.py", SRC)
            == "repro.check"
        )
        assert module_name_for(SRC / "repro" / "io.py", SRC) == "repro.io"


@settings(max_examples=25, deadline=None)
@given(order=st.permutations(list(range(4))))
def test_construction_is_byte_stable_across_file_orderings(tmp_path_factory, order):
    """Same sources, any discovery order → an equal graph."""
    tmp_path = tmp_path_factory.mktemp("cg")
    src_root = tmp_path / "src"
    src_root.mkdir()
    sources = {
        "a.py": "def f():\n    pass\n",
        "b.py": "from a import f\n\ndef g():\n    f()\n",
        "c.py": "import a\n\ndef h():\n    a.f()\n",
        "d.py": "def canonical_json(x):\n    from b import g\n    g()\n",
    }
    files = []
    for name, text in sources.items():
        path = src_root / name
        path.write_text(text)
        files.append(path)
    shuffled = [files[i] for i in order]
    baseline = build_callgraph(parse_modules(files, src_root))
    permuted = build_callgraph(parse_modules(shuffled, src_root))
    assert permuted == baseline
    assert list(permuted.functions) == list(baseline.functions)
    assert list(permuted.edges) == list(baseline.edges)
