"""The ingest cache: ``load_campaign`` against the uncached ``ingest_campaign``.

A warm load must give what a cold one gives, a changed input must give
what ``ingest_campaign`` gives (its first fault and message included), and
a damaged or unwritable cache must be a silent miss.
"""
from __future__ import annotations

import hashlib
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


def _columns_of(data: bytes) -> tuple[dict, list[bytes]]:
    """The JSON line of a cache file and the bytes of each of its columns, in order."""
    meta, offset = _meta(data)
    columns = []
    for dtype, shape in meta["columns"]:
        offset += -offset % campaign_io._CACHE_ALIGN
        columns.append(data[offset : offset + np.dtype(dtype).itemsize * math.prod(shape)])
        offset += len(columns[-1])
    return meta, columns


def _laid_out(data: bytes, layout: str, meta: dict, columns: list[bytes]) -> bytes:
    """The cache file ``data`` with format number ``layout``, JSON line ``meta`` and ``columns``, each
    aligned after it, under the body digest of the result."""
    magic, _, version, key, _ = data[: data.index(b"\n")].decode().split(" ")
    head = f"{magic} {layout} {version} {key} "
    body = json.dumps(meta, sort_keys=True).encode() + b"\n"
    for column in columns:
        body += bytes(-(len(head) + 64 + 1 + len(body)) % campaign_io._CACHE_ALIGN) + column
    return f"{head}{hashlib.sha256(body).hexdigest()}\n".encode() + body


def _as_format_3(data: bytes) -> bytes:
    """A format-4 cache file laid out as format 3 wrote it: ``input_sha256`` as (name, hex digest) pairs in
    its JSON line in place of the names and the digest column, and two derived columns, not four."""
    meta, columns = _columns_of(data)
    hexed = columns[-1].hex()
    meta["input_sha256"] = [[name, hexed[64 * i : 64 * i + 64]] for i, name in enumerate(meta.pop("inputs"))]
    n_columns = len(campaign_io._CACHED_COLUMNS) + 2
    meta["columns"] = meta["columns"][:n_columns]
    return _laid_out(data, "3", meta, columns[:n_columns])


def _as_format_2(data: bytes) -> bytes:
    """A format-4 cache file laid out as format 2 wrote it: as format 3, without the sweep files' lengths
    and the SHA-256 of their bytes."""
    meta, columns = _columns_of(_as_format_3(data))
    del meta["sweep_lengths"], meta["sweeps_sha256"]
    return _laid_out(data, "2", meta, columns)


def _as_format_1(data: bytes) -> bytes:
    """A format-4 cache file laid out as format 1 wrote it: as format 2, with the base columns alone."""
    meta, columns = _columns_of(_as_format_2(data))
    n_columns = len(campaign_io._CACHED_COLUMNS)
    meta["columns"] = meta["columns"][:n_columns]
    return _laid_out(data, "1", meta, columns[:n_columns])


#: by older format number: the function laying a format-4 file out as that format wrote it
OLDER_FORMATS = {
    # format 1 held the base columns alone, each checked again by ``Campaign`` on a hit
    "1": _as_format_1,
    # format 2 kept one SHA-256 per sweep file and no lengths, and a hit read and hashed each file apart
    "2": _as_format_2,
    # format 3 kept the digests as hex in the JSON line and lacked the gain-free and received-power columns
    "3": _as_format_3,
}


def _check_older_format_misses(manifest: Path, caplog, layout: str) -> None:
    expected = load_campaign(manifest)
    good = cache_path(manifest).read_bytes()
    old = OLDER_FORMATS[layout](good)
    assert old.split(b" ", 2)[1] == layout.encode()
    cache_path(manifest).write_bytes(old)
    with caplog.at_level(logging.INFO, logger=LOGGER):
        loaded = load_campaign(manifest)
    assert loaded == expected and list(loaded.input_sha256.items()) == list(expected.input_sha256.items())
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: cache rejected"
    assert cache_path(manifest).read_bytes() == good


def test_a_format_1_cache_is_a_silent_miss_and_rewritten(manifest, caplog):
    load_campaign(manifest)
    assert len(_meta(_as_format_1(cache_path(manifest).read_bytes()))[0]["columns"]) == len(campaign_io._CACHED_COLUMNS)
    _check_older_format_misses(manifest, caplog, "1")


def test_a_format_2_cache_is_a_silent_miss_and_rewritten(manifest, caplog):
    load_campaign(manifest)
    assert b"sweeps_sha256" not in _as_format_2(cache_path(manifest).read_bytes())
    _check_older_format_misses(manifest, caplog, "2")


def test_a_format_3_cache_is_a_silent_miss_and_rewritten(manifest, caplog):
    load_campaign(manifest)
    meta, columns = _columns_of(_as_format_3(cache_path(manifest).read_bytes()))
    assert "inputs" not in meta and [name for name, _ in meta["input_sha256"]] == list(load_campaign(manifest).input_sha256)
    assert len(columns) == len(campaign_io._CACHED_COLUMNS) + 2
    _check_older_format_misses(manifest, caplog, "3")


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


def _swap_two_digits(data: bytes) -> bytes:
    """``data`` with two differing digits of the last row's power swapped: the same length, other bytes."""
    start = data.rindex(b",") + 1
    digits = [i for i in range(start, len(data) - 1) if data[i : i + 1].isdigit() and data[i + 1 : i + 2].isdigit()]
    i = next(i for i in digits if data[i] != data[i + 1])
    return data[:i] + data[i + 1 : i + 2] + data[i : i + 1] + data[i + 2 :]


#: edits of a sweep file, each a miss naming that file
SWEEP_EDITS = {
    "two digits swapped": _swap_two_digits,
    "one byte appended": lambda data: data + b"#",
    "one byte cut": lambda data: data[:-1],
}


@pytest.mark.parametrize("edit", list(SWEEP_EDITS))
def test_an_edited_last_sweep_file_misses_naming_it(manifest, caplog, edit):
    rel = list(load_campaign(manifest).input_sha256)[-1]
    file = manifest.parent / rel
    data = file.read_bytes()
    file.write_bytes(SWEEP_EDITS[edit](data))
    assert file.read_bytes() != data and (len(file.read_bytes()) == len(data)) == (edit == "two digits swapped")
    with caplog.at_level(logging.INFO, logger=LOGGER):
        assert load_campaign(manifest) == ingest_campaign(manifest)
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: digest mismatch on {rel}"


@pytest.mark.parametrize("edit", ["none", "one byte appended"])
def test_reads_that_come_back_short_read_on_to_end_of_file(manifest, caplog, monkeypatch, edit):
    # as a network or FUSE file system may: every read one byte short of what it asked, so a read of a stored
    # length's bytes plus one can come back with exactly that length from a file one byte longer
    rel = list(load_campaign(manifest).input_sha256)[-1]
    file = manifest.parent / rel
    if edit == "one byte appended":
        file.write_bytes(file.read_bytes() + b"#")
    os_read = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: os_read(fd, max(n - 1, 1)))
    with caplog.at_level(logging.INFO, logger=LOGGER):
        loaded = load_campaign(manifest)
    expected = ingest_campaign(manifest)
    assert loaded == expected and list(loaded.input_sha256.items()) == list(expected.input_sha256.items())
    if edit == "none":
        assert _messages(caplog)[0].startswith(f"ingest cache hit for {manifest}: ")
    else:
        assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: digest mismatch on {rel}"


def test_a_sweep_file_rewritten_before_the_cache_write_misses(manifest, caplog, monkeypatch):
    # the cache stores the lengths and the digest of the bytes ingest parsed, not of the files as they are
    # when it is written: a file rewritten in between (here to the same length) must not hit
    rel = json.loads(manifest.read_text())["locations"][1]["sweeps"]
    file = manifest.parent / rel
    write_cache = campaign_io._write_cache

    def rewrite_then_write(path, campaign):
        file.write_bytes(_swap_two_digits(file.read_bytes()))
        write_cache(path, campaign)

    with monkeypatch.context() as m:
        m.setattr(campaign_io, "_write_cache", rewrite_then_write)
        cold = load_campaign(manifest)
    assert cold != ingest_campaign(manifest)
    with caplog.at_level(logging.INFO, logger=LOGGER):
        assert load_campaign(manifest) == ingest_campaign(manifest)
    assert _messages(caplog)[0] == f"ingest cache miss for {manifest}: digest mismatch on {rel}"


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


def test_after_a_hit_only_report_decodes_the_digests(manifest, tmp_path, capsys, caplog, monkeypatch):
    expected = ingest_campaign(manifest).input_sha256
    load_campaign(manifest)
    with monkeypatch.context() as m:
        m.setattr(campaign_io, "_hex_rows", lambda digests: pytest.fail("a hit decoded its digests"))
        with caplog.at_level(logging.INFO, logger=LOGGER):
            for argv in (["fit", "pathloss"], ["stats", "delay"], ["stats", "angular"]):
                assert _run([*argv, "--manifest", str(manifest)], capsys)[0] == EXIT_OK
        assert len(_messages(caplog)) == 3 and all(" cache hit " in message for message in _messages(caplog))
    assert _run(["report", "--manifest", str(manifest), "--out", str(tmp_path / "out")], capsys)[0] == EXIT_OK
    assert json.loads((tmp_path / "out" / "report.json").read_bytes())["inputs_sha256"] == expected


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
    assert (magic, layout, version) == ("subthz-chan-ingest-cache", "4", __version__)
    assert key == campaign.input_sha256[MANIFEST]
    assert len(body) == 64


#: (name, dtype) of each column a format-4 cache file holds, in order: the ``LocationColumns`` fields, the
#: derived columns, then the 32 bytes of each input file's SHA-256; a change here (a field added to
#: ``LocationColumns``, say) needs a new ``_CACHE_FORMAT``
FORMAT_4_COLUMNS = [
    ("tx_pos_m", "<f8"), ("rx_pos_m", "<f8"), ("los", "|b1"), ("tx_antenna", "<f8"), ("rx_antenna", "<f8"),
    ("tx_power_dbm", "<f8"), ("sweep_bounds", np.dtype(np.intp).str), ("tx_az_deg", "<f8"), ("rx_az_deg", "<f8"),
    ("noise_floor_db", "<f8"), ("tap_bounds", np.dtype(np.intp).str), ("delay_ns", "<f8"), ("power_db", "<f8"),
    ("distance_m", "<f8"), ("power_mw", "<f8"), ("gain_free_mw", "<f8"), ("received_dbm", "<f8"),
    ("input_sha256", "|u1"),
]


def test_the_current_format_pins_its_columns(manifest):
    campaign = load_campaign(manifest)
    meta, _ = _meta(cache_path(manifest).read_bytes())
    names = campaign_io._CACHED_COLUMNS + campaign_io._DERIVED_COLUMNS + ("input_sha256",)
    assert campaign_io._CACHE_FORMAT == "4"
    assert [(name, dtype) for name, (dtype, _) in zip(names, meta["columns"], strict=True)] == FORMAT_4_COLUMNS
    assert meta["columns"][-1][1] == [len(campaign.input_sha256), 32]
    assert meta["inputs"] == list(campaign.input_sha256)
    assert sorted(meta) == [
        "campaign_id", "carrier_hz", "columns", "delay_resolution_ns", "inputs", "polarization", "rx_id",
        "sweep_lengths", "sweeps_sha256", "tx_id", "tx_power_dbm",
    ]
