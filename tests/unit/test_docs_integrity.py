"""Documentation integrity: docs reference files and modules that exist."""

import importlib
import pathlib
import re


ROOT = pathlib.Path(__file__).resolve().parents[2]


def read(name):
    return (ROOT / name).read_text()


def test_required_documents_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE",
                 "docs/ARCHITECTURE.md", "docs/USAGE.md",
                 "benchmarks/README.md"):
        assert (ROOT / name).exists(), name


def test_design_references_existing_benchmarks():
    text = read("DESIGN.md")
    for match in set(re.findall(r"benchmarks/(bench_\w+\.py)", text)):
        assert (ROOT / "benchmarks" / match).exists(), match


def test_experiments_references_existing_benchmarks():
    text = read("EXPERIMENTS.md")
    for match in set(re.findall(r"`(bench_\w+\.py)`", text)):
        assert (ROOT / "benchmarks" / match).exists(), match


def test_every_benchmark_is_documented():
    documented = set(re.findall(r"bench_\w+\.py", read("EXPERIMENTS.md")))
    documented |= set(re.findall(r"bench_\w+\.py", read("DESIGN.md")))
    on_disk = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
    undocumented = on_disk - documented
    assert undocumented == set(), undocumented


def test_readme_references_existing_examples():
    text = read("README.md")
    for match in set(re.findall(r"examples/(\w+\.py)", text)):
        assert (ROOT / "examples" / match).exists(), match


def test_design_module_references_are_importable():
    text = read("DESIGN.md")
    for match in sorted(set(re.findall(r"`(repro(?:\.\w+)+)`", text))):
        parts = match.split(".")
        # Allow attribute references like repro.core.client; import the
        # longest importable prefix and resolve the rest as attributes.
        module = None
        for i in range(len(parts), 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:i]))
                rest = parts[i:]
                break
            except ImportError:
                continue
        assert module is not None, match
        obj = module
        for attr in rest:
            assert hasattr(obj, attr), f"{match} ({attr})"
            obj = getattr(obj, attr)


def test_usage_doc_module_references_are_importable():
    text = read("docs/USAGE.md")
    for match in sorted(set(re.findall(r"from (repro(?:\.\w+)*) import",
                                       text))):
        importlib.import_module(match)


def test_all_examples_have_docstrings_and_main():
    for path in (ROOT / "examples").glob("*.py"):
        source = path.read_text()
        assert source.lstrip().startswith(("#!", '"""')), path.name
        assert "def main" in source, path.name
        assert '__name__ == "__main__"' in source, path.name


def _metric_catalogue():
    """``{family: (kind, label names)}`` from the ARCHITECTURE §6 table."""
    rows = re.findall(r"^\| `(cliquemap_\w+)` \| (\w+) \| ([^|]*) \|",
                      read("docs/ARCHITECTURE.md"), re.M)
    return {name: (kind, set(re.findall(r"`(\w+)`", labels)))
            for name, kind, labels in rows}


def test_every_metric_family_is_catalogued():
    """Every ``cliquemap_*`` literal under ``src/`` has a catalogue row,
    and every family a small observed cell registers — SoR, probers,
    SLO engine, autoscaler, repair, resize and maintenance attached —
    has its row's kind and label names."""
    from repro.core import Cell, CellSpec, RepairConfig
    from repro.storage import SystemOfRecord

    catalogue = _metric_catalogue()
    literals = set()
    for path in (ROOT / "src").rglob("*.py"):
        literals |= set(re.findall(r"[\"'](cliquemap_\w+)[\"']",
                                   path.read_text()))
    assert sorted(literals - set(catalogue)) == []
    assert sorted(set(catalogue) - literals) == []

    cell = Cell(CellSpec(num_shards=3, transport="pony",
                         repair_config=RepairConfig()))
    sor = SystemOfRecord(cell.sim, cell.add_local_host("host/sor"))
    sor.load({b"cold": b"v"})
    cell.attach_sor(sor)
    cell.observe().autoscale()
    client = cell.connect_client()

    def app():
        yield from client.set(b"k", b"v")
        yield from client.get(b"k")
        yield from client.get(b"cold")
        yield cell.sim.delay(0.05)

    cell.sim.run(until=cell.sim.process(app()))
    registered = cell.metrics.families()
    assert len(registered) >= 20
    for name in registered:
        family = cell.metrics.family(name)
        kind, labels = catalogue[name]
        assert family.kind == kind, name
        for series in family.series():
            assert set(series.labels) == labels, (name, series.labels)
