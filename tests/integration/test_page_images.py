"""Byte-identity pin: the on-flash page images of a fixed-seed TPC-C run.

The determinism golden (``test_determinism.py``) hashes the engine's
logical-to-physical *mapping*, which a record codec or slotted-page change
cannot move as long as it writes the same number of pages at the same
times.  A codec that round-trips its own output but lays out a row, a key
or a slot directory differently would pass that test and still change
every byte the reproduction stores on flash.

This test loads ``tiny_scale()`` on native flash, runs a few hundred
transactions through a buffer pool small enough to write back constantly,
checkpoints, and pins the sha256 over every live flash page image, read
region by region in logical page order.
"""

import hashlib

from repro.core import traditional_placement
from repro.db import Database
from repro.flash import instant_timing
from repro.tpcc import Driver, load_database, tiny_scale
from tests.tpcc.conftest import tpcc_geometry

PAGES_SHA256 = "252f2a368583f34b4ea3154fd669004b2d2454474642aaf8022f86fb05afff92"
LIVE_PAGES = 195


def page_images_digest(db):
    """(sha256, page count) over every live page, regions by name, keys ascending."""
    digest = hashlib.sha256()
    count = 0
    at = db.now
    for region in db.store.regions():  # sorted by name
        digest.update(region.name.encode())
        for key in region.engine.keys():
            data, __ = region.engine.read(key, at)
            digest.update(key.to_bytes(8, "little"))
            digest.update(data)
            count += 1
    return digest.hexdigest(), count


def test_tpcc_page_images_match_pinned_digest():
    geometry = tpcc_geometry()
    db = Database.on_native_flash(
        geometry=geometry,
        placement=traditional_placement(geometry.dies),
        timing=instant_timing(),
        buffer_pages=48,  # far smaller than the database: constant write-back
    )
    scale = tiny_scale()
    load_database(db, scale, seed=0)
    Driver(db, scale, terminals=4, seed=13).run(num_transactions=300)
    db.checkpoint(db.now)

    sha, count = page_images_digest(db)
    assert (sha, count) == (PAGES_SHA256, LIVE_PAGES)
    db.store.check_consistency()
