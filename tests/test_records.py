"""Every record of the library takes no attribute beyond its fields.

Each record is a subclass of a `collections.namedtuple`, and a subclass
gets a `__dict__` unless it declares `__slots__ = ()` itself; one record
that forgets it fails here.
"""

import inspect
from pathlib import Path

import pytest

import framings
from framings import bundles, catalog, cli, defects, exactmath, links, quotients

LINKS = Path(__file__).resolve().parent.parent / "links"
MODULES = (bundles, catalog, cli, defects, exactmath, links, quotients)


def _samples() -> dict[type, object]:
    """One instance of each record class, keyed by its class."""
    report = links.analyze(links.unknot(-4), None)
    samples = [
        bundles.CircleBundle(0, 1),
        bundles.fiber_framing(bundles.CircleBundle(0, 1)),
        catalog.CatalogEntry("s3.delta", "the 4-ball framing", [1, 0], [1, 0]),
        cli.load_link_document(str(LINKS / "e8.json")),
        cli._commands()["quotient"],
        defects.TotalDefect(9, -24),
        defects.FramingOffset(1, 0),
        defects.LambdaClass(2),
        exactmath.IntMatrix([[2]]),
        exactmath.SmithForm((1, 4)),
        exactmath.solve_gf2([[1]], [1]),
        links.unknot(-4),
        report,
        report.framings,
        report.homology,
        report.spin_structures,
        report.spin_structures[0],
        quotients.cyclic(7),
    ]
    return {type(sample): sample for sample in samples}


SAMPLES = _samples()


def _records() -> set[type]:
    """The tuple classes each module defines, and SpinStructures."""
    return {cls for module in MODULES for cls in vars(module).values()
            if inspect.isclass(cls) and issubclass(cls, tuple)
            and cls.__module__ == module.__name__} | {links.SpinStructures}


def test_every_record_and_export_has_a_sample():
    exported = {cls for cls in vars(framings).values()
                if inspect.isclass(cls) and not issubclass(cls, Exception)}
    assert _records() == set(SAMPLES)
    assert exported <= set(SAMPLES)


@pytest.mark.parametrize("record", sorted(SAMPLES.values(), key=lambda x: type(x).__name__),
                         ids=lambda x: type(x).__name__)
def test_takes_no_attribute_beyond_its_fields(record):
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, "extra", 1)
