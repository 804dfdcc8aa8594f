"""Every user-visible output is byte-identical to the one pinned in
``tools/output_digests.txt``: ``synth``, ``eval`` at ``--jobs`` 1 and 2,
``bench``, ``match``, ``losses`` and both demos, on seeded inputs."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_digest.py"
PINNED = TOOL.with_name("output_digests.txt")


def test_every_output_matches_its_pinned_digest():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    pinned_build, *pinned = PINNED.read_text().splitlines()
    got = tool.digest_lines()
    differ = sorted({line.split("  ", 1)[1] for line in set(pinned) ^ set(got)})
    assert got == pinned, (
        f"outputs that differ from {PINNED.name}: {', '.join(differ) or 'none (order)'}; "
        f"pinned under {pinned_build.lstrip('# ')}, this run under {tool.build()}")
