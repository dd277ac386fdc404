"""The ingest cache: ``load_campaign`` against the uncached ``ingest_campaign``.

A warm load must give what a cold one gives, a changed input must give
what ``ingest_campaign`` gives (its first fault and message included), and
a damaged or unwritable cache must be a silent miss.
"""
from __future__ import annotations

import json
import logging
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ingest_properties import (  # noqa: F401  (campaign_files is a fixture)
    ENTRY_EDITS,
    LANE_MUTATIONS,
    MANIFEST,
    MUTATIONS,
    _apply,
    _outcome,
    campaign_files,
    mutations_of,
)

from subthz_chan import (
    LocationColumns,
    SynthesisParams,
    __version__,
    cache_path,
    campaign_io,
    factory_campaign_layout,
    ingest_campaign,
    load_campaign,
    render_campaign,
)
from subthz_chan.cli import EXIT_OK, main

LOGGER = "subthz_chan.campaign_io"

#: every query the CLI answers, as (label, arguments but ``--manifest``); ``pas dump`` reads the first location
QUERIES = [
    ("ingest text", ["ingest"]),
    ("ingest json", ["ingest", "--format", "json"]),
    *(
        (f"fit {pol} {kind}", ["fit", "pathloss", "--pol", pol, "--kind", kind])
        for pol, kind in (("VV", "omni"), ("VH", "omni"), ("VV", "B"), ("VV", "NBB"), ("VV", "NB"))
    ),
    ("stats delay", ["stats", "delay"]),
    ("stats angular", ["stats", "angular"]),
    ("pas dump", ["pas", "dump", "--side", "AOA"]),
    ("xpd report", ["xpd", "report"]),
]


def _run(argv: list[str], capsys) -> tuple[int, str, str]:
    if argv[0] == "pas":
        manifest = json.loads(Path(argv[-1]).read_text(encoding="utf-8"))
        argv = [*argv, "--tx-id", manifest["locations"][0]["tx_id"], "--rx-id", manifest["locations"][0]["rx_id"]]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _bundle(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def manifest(tmp_path) -> Path:
    return render_campaign(SynthesisParams(), 3, 5, tmp_path / "campaign").manifest_path


def _messages(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.name == LOGGER]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("layout", ["n200", "factory"])
def test_warm_load_gives_the_cold_campaign_report_and_queries(tmp_path, capsys, seed, layout):
    kwargs = {"layout": factory_campaign_layout()} if layout == "factory" else {}
    manifest = render_campaign(SynthesisParams(), 200 if layout == "n200" else None, seed, tmp_path / "c", **kwargs).manifest_path
    cache = cache_path(manifest)
    ingested = ingest_campaign(manifest)
    assert not cache.exists()
    cold = load_campaign(manifest)
    assert cache.is_file()
    warm = load_campaign(manifest)
    for loaded in (cold, warm):
        assert loaded == ingested
        assert repr(loaded) == repr(ingested)
        assert list(loaded.input_sha256.items()) == list(ingested.input_sha256.items())
    # the derived columns a hit maps from the cache hold the bits the cold campaign computes
    for name in campaign_io._DERIVED_COLUMNS:
        assert getattr(warm.columns, name).tobytes() == getattr(ingested.columns, name).tobytes(), name

    bundles = []
    for run in ("cold", "warm"):
        if run == "cold":
            cache.unlink()
        out = tmp_path / run
        assert _run(["report", "--manifest", str(manifest), "--out", str(out)], capsys)[0] == EXIT_OK
        assert cache.is_file()
        bundles.append(_bundle(out))
    assert bundles[0] == bundles[1]

    for label, argv in QUERIES:
        outputs = []
        for run in ("cold", "warm"):
            if run == "cold":
                cache.unlink()
            outputs.append(_run([*argv, "--manifest", str(manifest)], capsys))
        assert outputs[0] == outputs[1], label
        assert outputs[0][0] == EXIT_OK, label


def _check_loader_matches_ingest(files: dict[str, str], mutate) -> None:
    """Warm the cache on ``files``, let ``mutate`` edit a copy of them in place, then require of
    ``load_campaign`` what ``ingest_campaign`` gives: an equal campaign, or the same exception type
    and message."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sweeps").mkdir()
        for rel, text in files.items():
            (root / rel).write_bytes(text.encode("utf-8"))
        load_campaign(root / MANIFEST)
        assert cache_path(root / MANIFEST).is_file()
        files = dict(files)
        mutate(files)
        for rel, text in files.items():
            (root / rel).write_bytes(text.encode("utf-8"))
        loaded, loaded_err = _outcome(load_campaign, root / MANIFEST)
        ingested, ingested_err = _outcome(ingest_campaign, root / MANIFEST)
        if ingested_err is None:
            assert loaded_err is None, f"ingest accepted, loader raised {loaded_err!r}"
            assert loaded == ingested
            assert repr(loaded) == repr(ingested)
            assert list(loaded.input_sha256.items()) == list(ingested.input_sha256.items())
            again = load_campaign(root / MANIFEST)  # from the cache the miss rewrote
            assert (again, list(again.input_sha256.items())) == (ingested, list(ingested.input_sha256.items()))
        else:
            assert loaded_err is not None, f"ingest raised {ingested_err!r}, loader accepted"
            assert (type(loaded_err), str(loaded_err)) == (type(ingested_err), str(ingested_err))


@settings(max_examples=300, derandomize=True)
@given(mutations=st.lists(mutations_of(MUTATIONS + LANE_MUTATIONS), min_size=1, max_size=2))
def test_mutated_inputs_after_a_warm_up_load_as_they_ingest(campaign_files, mutations):
    _check_loader_matches_ingest(campaign_files, lambda files: [_apply(files, *m) for m in mutations])


@settings(max_examples=150, derandomize=True)
@given(mutations=st.lists(mutations_of(("manifest",)), min_size=1, max_size=2))
def test_manifest_edits_after_a_warm_up_load_as_they_ingest(campaign_files, mutations):
    _check_loader_matches_ingest(campaign_files, lambda files: [_apply(files, *m) for m in mutations])


@pytest.mark.parametrize("edit", list(ENTRY_EDITS))
def test_entry_edits_after_a_warm_up_load_as_they_ingest(campaign_files, edit):
    doc = json.loads(campaign_files[MANIFEST])
    doc["locations"][3] = ENTRY_EDITS[edit](doc["locations"][3])
    _check_loader_matches_ingest(campaign_files, lambda files: files.update({MANIFEST: json.dumps(doc, indent=2)}))


def test_a_removed_sweep_file_raises_what_ingest_raises(manifest):
    load_campaign(manifest)
    (manifest.parent / json.loads(manifest.read_text())["locations"][2]["sweeps"]).unlink()
    with pytest.raises(FileNotFoundError) as ingested:
        ingest_campaign(manifest)
    with pytest.raises(FileNotFoundError) as loaded:
        load_campaign(manifest)
    assert str(loaded.value) == str(ingested.value)


def test_a_hit_runs_no_ingest(manifest, monkeypatch):
    expected = load_campaign(manifest)
    monkeypatch.setattr(campaign_io, "ingest_campaign", lambda path: pytest.fail("a hit ingested"))
    assert load_campaign(manifest) == expected


def test_a_miss_checks_the_columns_and_a_hit_does_not(manifest, monkeypatch):
    called = []
    for name in ("shape_fault", "first_fault"):
        def counted(self, *args, check=getattr(LocationColumns, name)):
            called.append(check.__name__)
            return check(self, *args)
        monkeypatch.setattr(LocationColumns, name, counted)
    expected = load_campaign(manifest)
    assert {"shape_fault", "first_fault"} <= set(called)
    for name in ("shape_fault", "first_fault"):
        monkeypatch.setattr(LocationColumns, name, lambda self, *args, name=name: pytest.fail(f"a hit ran {name}"))
    monkeypatch.setattr(campaign_io, "ingest_campaign", lambda path: pytest.fail("a hit ingested"))
    loaded = load_campaign(manifest)
    assert loaded == expected and list(loaded.input_sha256.items()) == list(expected.input_sha256.items())
    assert not loaded.columns.delay_ns.flags.writeable and not loaded.rows("VV").flags.writeable


def _header_with(data: bytes, index: int, word: str) -> bytes:
    head, rest = data.split(b"\n", 1)
    words = head.decode().split(" ")
    words[index] = word
    return " ".join(words).encode() + b"\n" + rest


def _meta(data: bytes) -> tuple[dict, int]:
    """The JSON line of a cache file, and where the bytes after it start."""
    end = data.index(b"\n") + 1
    meta_end = data.index(b"\n", end) + 1
    return json.loads(data[end:meta_end]), meta_end


def _flipped_in(name: str):
    """Damage that flips the first byte of the cached or derived column ``name``."""
    def flip(data: bytes) -> bytes:
        meta, offset = _meta(data)
        for column, (dtype, shape) in zip(campaign_io._CACHED_COLUMNS + campaign_io._DERIVED_COLUMNS, meta["columns"]):
            offset += -offset % campaign_io._CACHE_ALIGN
            if column == name:
                return data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1 :]
            offset += np.dtype(dtype).itemsize * math.prod(shape)
        raise AssertionError(f"no column {name}")
    return flip


#: damage done to a good cache file, each a miss that rewrites it
DAMAGE = {
    "empty": lambda data: b"",
    "truncated": lambda data: data[: len(data) // 2],
    "one byte short": lambda data: data[:-1],
    "one byte more": lambda data: data + b"\0",
    "garbage": lambda data: bytes(range(256)) * 8,
    "flipped column byte": lambda data: data[:-5] + bytes([data[-5] ^ 1]) + data[-4:],
    **{f"flipped {name} byte": _flipped_in(name) for name in campaign_io._DERIVED_COLUMNS},
    "wrong magic": lambda data: _header_with(data, 0, "other-cache"),
    "wrong format": lambda data: _header_with(data, 1, "0"),
    "wrong version": lambda data: _header_with(data, 2, "0.0.1"),
    "no header line": lambda data: data.replace(b"\n", b" ", 1),
}


@pytest.mark.parametrize("damage", list(DAMAGE))
def test_damaged_cache_is_a_silent_miss_and_rewritten(manifest, caplog, capsys, damage):
    cache = cache_path(manifest)
    expected = load_campaign(manifest)
    good = cache.read_bytes()
    cache.write_bytes(DAMAGE[damage](good))
    with caplog.at_level(logging.INFO, logger=LOGGER):
        loaded = load_campaign(manifest)
    assert loaded == expected and loaded.input_sha256 == expected.input_sha256
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: cache rejected"
    assert cache.read_bytes() == good
    assert capsys.readouterr() == ("", "")


def test_a_format_1_cache_is_a_silent_miss_and_rewritten(manifest, caplog, monkeypatch):
    # format 1 held the base columns alone, each checked again by ``Campaign`` on a hit
    expected = load_campaign(manifest)
    good = cache_path(manifest).read_bytes()
    with monkeypatch.context() as m:
        m.setattr(campaign_io, "_CACHE_FORMAT", "1")
        m.setattr(campaign_io, "_DERIVED_COLUMNS", ())
        campaign_io._write_cache(manifest, expected)
    old = cache_path(manifest).read_bytes()
    assert old.split(b" ", 2)[1] == b"1" and len(_meta(old)[0]["columns"]) == len(campaign_io._CACHED_COLUMNS)
    with caplog.at_level(logging.INFO, logger=LOGGER):
        loaded = load_campaign(manifest)
    assert loaded == expected and list(loaded.input_sha256.items()) == list(expected.input_sha256.items())
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: cache rejected"
    assert cache_path(manifest).read_bytes() == good


def test_foreign_cache_is_a_key_mismatch(manifest, tmp_path, caplog):
    other = render_campaign(SynthesisParams(), 3, 6, tmp_path / "other").manifest_path
    load_campaign(other)
    expected = load_campaign(manifest)
    good = cache_path(manifest).read_bytes()
    shutil.copyfile(cache_path(other), cache_path(manifest))
    with caplog.at_level(logging.INFO, logger=LOGGER):
        assert load_campaign(manifest) == expected
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: key mismatch"
    assert cache_path(manifest).read_bytes() == good


def test_cache_of_a_renamed_manifest_is_a_key_mismatch(manifest, caplog):
    # the same bytes under another name: input_sha256 keys the manifest by its name
    load_campaign(manifest)
    renamed = manifest.with_name("renamed.json")
    shutil.copyfile(manifest, renamed)
    shutil.copyfile(cache_path(manifest), cache_path(renamed))
    with caplog.at_level(logging.INFO, logger=LOGGER):
        loaded = load_campaign(renamed)
    assert list(loaded.input_sha256)[0] == "renamed.json"
    assert _messages(caplog)[0] == f"ingest cache miss for {renamed}: key mismatch"


def test_each_load_logs_hit_or_miss_and_why(manifest, caplog):
    sweep = json.loads(manifest.read_text())["locations"][1]["sweeps"]
    with caplog.at_level(logging.INFO, logger=LOGGER):
        load_campaign(manifest)
        first = _messages(caplog)
        caplog.clear()
        load_campaign(manifest)
        hit = _messages(caplog)
        caplog.clear()
        manifest.write_bytes(manifest.read_bytes() + b"\n")
        load_campaign(manifest)
        key = _messages(caplog)
        caplog.clear()
        with open(manifest.parent / sweep, "a", encoding="utf-8") as f:
            f.write("# a comment changes the bytes, not the campaign\n")
        load_campaign(manifest)
        digest = _messages(caplog)
    assert first[0] == f"ingest cache miss for {manifest}: no cache"
    assert first[1].startswith("ingested synthetic-factory-142ghz: 6 locations, 7 files, ")
    assert len(first) == 2
    (line,) = hit
    assert line.startswith(f"ingest cache hit for {manifest}: 7 files re-hashed in ")
    assert key[0] == f"ingest cache miss for {manifest}: key mismatch"
    assert digest[0] == f"ingest cache miss for {manifest}: digest mismatch on {sweep}"
    assert all(r.levelno == logging.INFO for r in caplog.records)


def test_a_sweep_path_only_the_line_reader_opens_still_hits(manifest, caplog):
    # ``x.csv/`` names no file when joined as a string; ingest reads it at the pathlib path, and so does a hit
    doc = json.loads(manifest.read_text())
    doc["locations"][2]["sweeps"] += "/"
    manifest.write_text(json.dumps(doc))
    expected = load_campaign(manifest)
    with caplog.at_level(logging.INFO, logger=LOGGER):
        assert load_campaign(manifest) == expected
    assert _messages(caplog)[0].startswith(f"ingest cache hit for {manifest}: ")


@pytest.fixture
def long_sweep(manifest) -> str:
    """The name of a sweep file of ``manifest`` grown by a comment line past what two reads take."""
    rel = json.loads(manifest.read_text())["locations"][1]["sweeps"]
    with open(manifest.parent / rel, "a", encoding="ascii") as f:
        f.write("#" + "x" * (campaign_io._FIRST_READ + (1 << 16)) + "\n")
    return rel


def test_a_sweep_file_read_in_chunks_hits(manifest, long_sweep, caplog):
    expected = ingest_campaign(manifest)
    assert load_campaign(manifest) == expected
    with caplog.at_level(logging.INFO, logger=LOGGER):
        warm = load_campaign(manifest)
    assert warm == expected and list(warm.input_sha256.items()) == list(expected.input_sha256.items())
    assert _messages(caplog)[0].startswith(f"ingest cache hit for {manifest}: ")


@pytest.mark.parametrize("edit", ["one byte appended", "one byte cut"])
def test_a_long_sweep_file_one_byte_longer_or_shorter_misses(manifest, long_sweep, caplog, edit):
    load_campaign(manifest)
    file = manifest.parent / long_sweep
    data = file.read_bytes()
    file.write_bytes(data + b"#" if edit == "one byte appended" else data[:-1])
    with caplog.at_level(logging.INFO, logger=LOGGER):
        assert load_campaign(manifest) == ingest_campaign(manifest)
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: digest mismatch on {long_sweep}"


def test_a_hit_opens_each_file_once(manifest, monkeypatch):
    # the cache, the manifest, then each sweep file at its joined path: no file reaches the pathlib fallback;
    # each file, shorter than the first read, takes two reads, the second seeing end of file
    load_campaign(manifest)
    opened, reads = [], []
    os_open, os_read = os.open, os.read

    def counting_open(file, *args):
        if sys._getframe(1).f_globals["__name__"] == campaign_io.__name__:
            opened.append(file)
        return os_open(file, *args)

    def counting_read(fd, n):
        if sys._getframe(1).f_globals["__name__"] == campaign_io.__name__:
            reads.append(n)
        return os_read(fd, n)

    monkeypatch.setattr(os, "open", counting_open)
    monkeypatch.setattr(os, "read", counting_read)
    campaign = load_campaign(manifest)
    rels = list(campaign.input_sha256)[1:]
    assert len(opened) == len(rels) + 2
    assert opened == [str(cache_path(manifest)), str(manifest), *(str(manifest.parent / rel) for rel in rels)]
    assert len(reads) == 2 * len(opened)


def test_silent_at_warning(manifest, caplog):
    with caplog.at_level(logging.WARNING):
        load_campaign(manifest)
        load_campaign(manifest)
    assert not caplog.records


def _queries_of(manifest: Path, out: Path, capsys) -> list:
    runs = [_run(["report", "--manifest", str(manifest), "--out", str(out)], capsys)]
    runs[0] = (runs[0][0], runs[0][1].replace(str(out), "<out>"), runs[0][2])
    runs += [_run([*argv, "--manifest", str(manifest)], capsys) for _, argv in QUERIES]
    return [runs, _bundle(out)]


@pytest.mark.parametrize("how", ["directory at the cache path", "os.replace fails"])
def test_failed_cache_write_leaves_output_unchanged(manifest, tmp_path, capsys, monkeypatch, how):
    expected = _queries_of(manifest, tmp_path / "expected", capsys)
    cache = cache_path(manifest)
    cache.unlink()
    if how == "os.replace fails":
        def replace(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(os, "replace", replace)
    else:
        cache.mkdir()
    assert _queries_of(manifest, tmp_path / "actual", capsys) == expected
    # no cache was written, and no temporary file is left behind
    left = {p.name for p in manifest.parent.iterdir()} - {MANIFEST, "sweeps"}
    assert left == ({cache.name} if how == "directory at the cache path" else set())
    assert not cache.is_file()


def test_two_cold_runs_leave_byte_identical_trees(tmp_path):
    trees = []
    for sub in ("one", "two"):
        manifest = render_campaign(SynthesisParams(), 3, 5, tmp_path / sub).manifest_path
        load_campaign(manifest)
        trees.append(_tree(tmp_path / sub))
    assert trees[0] == trees[1]
    assert cache_path(MANIFEST).name in trees[0]


def test_header_names_format_version_and_key(manifest):
    campaign = load_campaign(manifest)
    head = cache_path(manifest).read_bytes().split(b"\n", 1)[0].decode()
    magic, layout, version, key, body = head.split(" ")
    assert (magic, layout, version) == ("subthz-chan-ingest-cache", "2", __version__)
    assert key == campaign.input_sha256[MANIFEST]
    assert len(body) == 64


#: (name, dtype) of each column a format-2 cache file holds, in order: the ``LocationColumns`` fields, then
#: the derived columns; a change here (a field added to ``LocationColumns``, say) needs a new ``_CACHE_FORMAT``
FORMAT_2_COLUMNS = [
    ("tx_pos_m", "<f8"), ("rx_pos_m", "<f8"), ("los", "|b1"), ("tx_antenna", "<f8"), ("rx_antenna", "<f8"),
    ("tx_power_dbm", "<f8"), ("sweep_bounds", np.dtype(np.intp).str), ("tx_az_deg", "<f8"), ("rx_az_deg", "<f8"),
    ("noise_floor_db", "<f8"), ("tap_bounds", np.dtype(np.intp).str), ("delay_ns", "<f8"), ("power_db", "<f8"),
    ("distance_m", "<f8"), ("power_mw", "<f8"),
]


def test_the_current_format_pins_its_columns(manifest):
    load_campaign(manifest)
    meta, _ = _meta(cache_path(manifest).read_bytes())
    names = campaign_io._CACHED_COLUMNS + campaign_io._DERIVED_COLUMNS
    assert campaign_io._CACHE_FORMAT == "2"
    assert [(name, dtype) for name, (dtype, _) in zip(names, meta["columns"], strict=True)] == FORMAT_2_COLUMNS
