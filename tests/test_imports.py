"""Start-up: importing the CLI, and running it with text output, loads
none of the modules that only dataclasses or JSON output need.  And the
package's public names are a fixed list."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HEAVY = {"dataclasses", "inspect", "json"}


def _loaded_by(code: str) -> set[str]:
    """Modules that ``code`` loads in a fresh interpreter, counted from
    just after ``import sys``."""
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              f"{code}\n"
              "print(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    loaded = _loaded_by("import tanglepoly.cli")
    assert "tanglepoly.cli" in loaded
    assert loaded & HEAVY == set()


def test_text_output_loads_no_json():
    run = ("from tanglepoly.cli import main\n"
           "assert main(['compute', '-i', 'samples/clasp.tangle', '--format', '{}']) == 0")
    assert "json" not in _loaded_by(run.format("text"))
    # the check can see the import it guards against
    assert "json" in _loaded_by(run.format("json"))


def test_public_surface_is_pinned():
    # an addition to or removal from the package's names is a deliberate
    # edit of this list
    import tanglepoly

    assert sorted(tanglepoly.__all__) == [
        "BoundaryPoint", "Chord", "Classical", "Component", "DiagramError", "Endpoint",
        "GlueError", "GlueResult", "InvariantError", "InvariantReport", "KinkInsert", "KinkRemove",
        "LaurentPoly", "MoveError", "MoveKind", "MoveSite", "PairInsert", "PairRemove",
        "ParseError", "ResolutionError", "Side", "Singular", "SourceSpan", "TangleDiagram",
        "TangleError", "TriangleSlide", "Violation", "apply", "as_fraction", "canonical",
        "check_additivity", "closure", "connect", "enumerate_sites", "equal_diagrams",
        "from_json_terms", "from_tokens", "henrich_turaev_polynomial", "intersection_index",
        "invariant_report", "is_string_link", "iter_walk", "laurent_linking_polynomial",
        "link_with_linking_numbers", "linking_polynomial", "long_ordered_polynomial", "mono",
        "parse", "random_walk", "resolve", "reverse_component", "self_crossing_polynomial",
        "serialize", "validate", "vassiliev_derivative", "virtual_linking_number",
        "wriggle_number", "zero",
    ]
    assert tanglepoly.BoundaryPoint._fields == ("side", "index")
