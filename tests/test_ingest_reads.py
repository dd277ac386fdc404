"""Ingest opens each sweep file once, whichever reader parses it, and leaves no file open."""
from __future__ import annotations

import io
import json
import os
from collections import Counter

import pytest

from subthz_chan import CampaignFormatError, SynthesisParams, ingest_campaign, render_campaign


@pytest.fixture
def opened(monkeypatch):
    """Counter of the sweep files opened, by name, by ``os.open`` or ``io.open``, and the fds still open."""
    names: Counter = Counter()
    live: set[int] = set()
    real_os_open, real_os_close, real_io_open = os.open, os.close, io.open

    def os_open(path, *args, **kwargs):
        fd = real_os_open(path, *args, **kwargs)
        live.add(fd)
        if os.fspath(path).endswith(".csv"):
            names[os.path.basename(os.fspath(path))] += 1
        return fd

    def os_close(fd):
        live.discard(fd)
        real_os_close(fd)

    def io_open(file, *args, **kwargs):
        f = real_io_open(file, *args, **kwargs)
        if os.fspath(file).endswith(".csv"):
            names[os.path.basename(os.fspath(file))] += 1
        return f

    monkeypatch.setattr(os, "open", os_open)
    monkeypatch.setattr(os, "close", os_close)
    monkeypatch.setattr(io, "open", io_open)
    return names, live


@pytest.fixture
def manifest(tmp_path):
    return render_campaign(SynthesisParams(), 4, 2, tmp_path / "c").manifest_path


def sweep_names(manifest) -> list[str]:
    return [os.path.basename(entry["sweeps"].rstrip("/")) for entry in json.loads(manifest.read_text())["locations"]]


def test_written_files_open_once(manifest, opened):
    names, live = opened
    ingest_campaign(manifest)
    assert names == Counter(sweep_names(manifest)) and set(names.values()) == {1}
    assert not live


@pytest.mark.parametrize(
    "edit",
    [
        lambda data: data.replace(b"\n", b"\r\n"),  # the line reader parses the bytes read once
        lambda data: data + b"# a trailing comment\n",
    ],
    ids=["crlf", "comment"],
)
def test_files_the_line_reader_parses_open_once(manifest, opened, edit):
    for file in (manifest.parent / "sweeps").iterdir():
        file.write_bytes(edit(file.read_bytes()))
    names, live = opened
    names.clear()  # the edits' own opens
    ingest_campaign(manifest)
    assert names == Counter(sweep_names(manifest))
    assert not live


def test_paths_only_pathlib_opens_are_opened_once(manifest, opened):
    # a trailing slash fails the plain open; the line reader's pathlib path drops it
    doc = json.loads(manifest.read_text())
    doc["locations"][1]["sweeps"] += "/"
    manifest.write_text(json.dumps(doc))
    names, live = opened
    names.clear()  # the edits' own opens
    ingest_campaign(manifest)
    assert names == Counter(sweep_names(manifest))
    assert not live


def test_an_absolute_sweep_path_reads_as_the_relative_one(manifest, opened, monkeypatch):
    from subthz_chan import campaign_io

    expected = ingest_campaign(manifest)
    doc = json.loads(manifest.read_text())
    rel = doc["locations"][1]["sweeps"]
    absolute = str(manifest.parent / rel)
    assert os.path.isabs(absolute)
    doc["locations"][1]["sweeps"] = absolute
    manifest.write_text(json.dumps(doc))
    names, live = opened
    names.clear()  # the edits' own opens
    monkeypatch.setattr(campaign_io._SweepRows, "read", lambda *args: pytest.fail("line reader used"))
    campaign = ingest_campaign(manifest)
    assert campaign == expected
    assert names == Counter(sweep_names(manifest)) and set(names.values()) == {1}
    assert not live
    # keyed by each path as the manifest spells it
    assert set(campaign.input_sha256) == set(expected.input_sha256) - {rel} | {absolute}
    assert campaign.input_sha256[absolute] == expected.input_sha256[rel]


@pytest.mark.parametrize("rel", ["sweeps", "", "missing.csv", "bad\0name.csv"], ids=repr)
def test_unreadable_paths_close_what_they_open(manifest, opened, rel):
    doc = json.loads(manifest.read_text())
    doc["locations"][2]["sweeps"] = rel
    manifest.write_text(json.dumps(doc))
    names, live = opened
    names.clear()
    with pytest.raises((CampaignFormatError, OSError, ValueError)):
        ingest_campaign(manifest)
    assert set(names.values()) == {1}
    assert not live


def test_written_files_skip_the_line_reader(manifest, monkeypatch):
    from subthz_chan import campaign_io

    expected = ingest_campaign(manifest)
    monkeypatch.setattr(campaign_io._SweepRows, "read", lambda *args: pytest.fail("line reader used"))
    campaign = ingest_campaign(manifest)
    assert campaign == expected and campaign.input_sha256 == expected.input_sha256
