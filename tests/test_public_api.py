"""The consolidated public API surface.

``repro`` and ``repro.serve`` declare their supported names in ``__all__``
and resolve them lazily (PEP 562).  These tests pin two promises:

* every advertised name actually imports (no stale ``__all__`` entries),
* laziness is real — ``import repro`` does not pull in heavy subsystems.
"""

import subprocess
import sys

import pytest

import repro
import repro.serve


@pytest.mark.parametrize("name", sorted(repro.__all__))
def test_every_top_level_public_name_resolves(name):
    value = getattr(repro, name)
    assert value is not None
    assert name in dir(repro)


@pytest.mark.parametrize("name", sorted(repro.serve.__all__))
def test_every_serve_public_name_resolves(name):
    value = getattr(repro.serve, name)
    assert value is not None
    assert name in dir(repro.serve)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute"):
        repro.definitely_not_a_public_name
    with pytest.raises(AttributeError, match="no attribute"):
        repro.serve.definitely_not_a_public_name


def test_import_repro_is_lazy():
    # A fresh interpreter importing ``repro`` must not load the serving
    # stack, the engine, or the experiment harness as a side effect.
    code = (
        "import sys; import repro; "
        "heavy = [m for m in sys.modules if m.startswith(('repro.serve', "
        "'repro.engine', 'repro.experiments'))]; "
        "assert not heavy, heavy; print('lazy ok')"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lazy ok" in proc.stdout


def test_version_is_exported():
    assert repro.__version__ == "1.0.0"
    assert "__version__" in repro.__all__


def test_serve_surface_covers_the_shim_modules_public_names():
    # Every class the removed deep paths exposed is reachable from
    # repro.serve, the one import surface.
    for name in ("ServeFleet", "WorkerSpec", "SegmentClient",
                 "SegmentationService", "AsyncSegmentationService", "ResultCache"):
        assert hasattr(repro.serve, name), name
