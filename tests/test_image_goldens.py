"""Golden pins for the built images.

Every source the reproduction compiles — the seeded genprog corpus, the
registered workloads and the server apps — is built under each of the
five schemes by ``build_image``, as ``build_vm`` builds it (the
scheme's passes, or a plain clone for native, then finalize), and a
sha256 of the image's textual dump (every ``; safe`` mark included), its
sorted ``meta`` and its ``stats()`` is compared with
``tests/goldens/images.json``.  A change
to the frontend, the passes, cloning or finalization that alters any
instruction, safe mark, check count or layout on any build fails here
by name.

To regenerate after an intentional change to the built images::

    PYTHONPATH=src python -m tests.test_image_goldens
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.harness.runner import SCHEMES
from repro.ir import print_module
from repro.minic import compile_source
from repro.vm.machine import build_image
from tests.test_minic_tokens import SOURCES

GOLDEN = Path(__file__).resolve().parent / "goldens" / "images.json"

#: Every scheme the registry builds, native included.
IMAGE_SCHEMES = tuple(SCHEMES)


def image_digest(module, scheme_name: str) -> str:
    return built_digest(build_image(module, SCHEMES[scheme_name]()))


def built_digest(image) -> str:
    """Digest of a built image: IR dump with ``; safe`` marks, sorted
    ``meta`` and ``stats()``."""
    text = repr((print_module(image), sorted(image.meta.items()),
                 image.stats()))
    return hashlib.sha256(text.encode()).hexdigest()


def digests(name: str) -> Dict[str, str]:
    """``"<source>/<scheme>"`` -> digest for one source, every scheme
    built from the same compiled module."""
    module = compile_source(SOURCES[name], name)
    return {f"{name}/{scheme}": image_digest(module, scheme)
            for scheme in IMAGE_SCHEMES}


def test_every_build_is_pinned():
    assert len(SOURCES) == 94
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(
        f"{name}/{scheme}" for name in SOURCES for scheme in IMAGE_SCHEMES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_images_match_golden(name):
    golden = json.loads(GOLDEN.read_text())
    built = digests(name)
    assert built == {key: golden.get(key) for key in built}


if __name__ == "__main__":
    pins: Dict[str, str] = {}
    for source in SOURCES:
        pins.update(digests(source))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
