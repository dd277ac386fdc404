"""Property tests of ingest: the batched reader against the line-by-line
oracle on mutated campaigns, and write -> ingest -> write round trips."""
from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from subthz_chan import (
    CampaignFormatError,
    LobeCountLaw,
    RmsdsLaw,
    SynthesisParams,
    ValidationError,
    XpdLaw,
    ingest_campaign,
    render_campaign,
    write_campaign,
)
from subthz_chan.campaign_io import _SweepRows
from ingest_oracle import oracle_ingest_campaign

MANIFEST = "manifest.json"

MUTATIONS = (
    "delete", "duplicate", "swap", "truncate", "garble", "nan", "azimuth", "off_lattice", "dup_delay",
    "manifest", "line_endings",
)
#: edits at the edge of the layout ``write_campaign`` writes, which ingest reads without its line loop
LANE_MUTATIONS = (
    "blank", "comment", "whitespace", "line_break", "no_final_newline", "cut_short", "floor_below_header",
    "header_spaces", "balanced_commas",
)
#: the line breaks of ``str.splitlines`` besides LF
LINE_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

#: replacement tokens: some are spellings ``float`` accepts, the rest are not numbers
GARBLED = ("x", "", " 1.5", "1_0", "1e400", "--1", "0x10", "inf", "-0.0", "١٢")

#: manifest replacements that the reader rejects with a CampaignFormatError, or
#: accepts; DELETE removes the key, and REPEAT appends a copy of the entry
#: instead of replacing a key
DELETE, REPEAT = object(), object()
MANIFEST_VALUES = (
    DELETE, REPEAT, 1.0, 0.0, -2.0, True, "", ".", "sweeps/\0.csv", [], {}, [math.nan, 0.0, 0.0], [1e400, 0.0, 0.0],
    [1.0, 2.0], math.nan, math.inf, 10**400,
)
#: top-level keys a mutation may touch; ``locations`` is left whole, so a
#: second mutation still finds its entries
TOP_KEYS = ("campaign_id", "carrier_hz", "tx_power_dbm", "delay_resolution_ns")


@pytest.fixture(scope="module")
def campaign_files(tmp_path_factory):
    """{relative path: text} of a rendered three-placement campaign."""
    root = tmp_path_factory.mktemp("rendered")
    render_campaign(SynthesisParams(), 3, 5, root)
    return {str(p.relative_to(root)): p.read_text(encoding="utf-8") for p in sorted(root.rglob("*")) if p.is_file()}


def _mutate_manifest(text: str, a: int, b: int, c: int) -> str:
    doc = json.loads(text)
    entries = doc["locations"]
    value = MANIFEST_VALUES[c % len(MANIFEST_VALUES)]
    if value is REPEAT:
        entries.append(entries[a % len(entries)])
        return json.dumps(doc, indent=2)
    pick = a % (len(entries) + 1)
    if pick == len(entries):
        target, keys = doc, TOP_KEYS
    else:
        target = entries[pick]
        keys = sorted(target)
        if keys[b % len(keys)] == "antenna":
            target = target["antenna"]
            keys = sorted(target)
    key = keys[b % len(keys)]
    if value is DELETE:
        target.pop(key, None)
    else:
        target[key] = value
    return json.dumps(doc, indent=2)


def _mutate_lines(kind: str, text: str, a: int, b: int, c: int) -> str:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        return text
    i, j = b % len(lines), c % len(lines)
    data_row_kinds = ("nan", "azimuth", "off_lattice", "dup_delay", "comment", "whitespace", "line_break")
    if len(lines) > 2 and kind in data_row_kinds:
        i = 2 + b % (len(lines) - 2)  # a data row of an unmutated file
    parts = lines[i].split(",")
    if kind in LANE_MUTATIONS:
        return _mutate_layout(kind, lines, i, a, c)
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(j, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: c % (len(lines[i]) + 1)]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "garble":
        parts[c % len(parts)] = GARBLED[a % len(GARBLED)]
        lines[i] = ",".join(parts)
    elif len(parts) != 4:
        del lines[i]
    elif kind == "nan":
        parts[c % 4] = "nan"
        lines[i] = ",".join(parts)
    elif kind == "azimuth":
        parts[c % 2] = ("360.0", "-8.0", "720.0")[a % 3]
        lines[i] = ",".join(parts)
    elif kind == "off_lattice":
        try:
            parts[2] = repr(float(parts[2]) + (1.0, 0.5, 1e-3)[a % 3])
        except ValueError:  # a header or a garbled row
            parts[2] = "1.0"
        lines[i] = ",".join(parts)
    else:  # dup_delay: a second bin at the same delay of the same pointing
        lines.insert(i + 1, ",".join(parts[:3] + ["-50.0"]))
    return "\n".join(lines) + "\n"


def _mutate_layout(kind: str, lines: list[str], i: int, a: int, c: int) -> str:
    """A ``LANE_MUTATIONS`` edit at line ``i``: a layout the lean lane must read as the line reader
    does, or leave to it, valid (a blank line, a moved floor) or not (a duplicate floor, a split row)."""
    parts = lines[i].split(",")
    if kind == "blank":
        lines.insert(i, ("", " ", "\t ")[a % 3])
    elif kind == "comment":
        lines.insert(i, ("# between rows", "#", "# noise_floor_db=-1.0")[a % 3])
    elif kind == "whitespace":
        if a % 2:
            lines[i] = f" {lines[i]}\t"
        else:
            parts[c % len(parts)] = f" {parts[c % len(parts)]} "
            lines[i] = ",".join(parts)
    elif kind == "line_break":
        brk = LINE_BREAKS[a % len(LINE_BREAKS)]
        if a // len(LINE_BREAKS) % 2 and i + 1 < len(lines):  # in place of a LF
            lines[i : i + 2] = [lines[i] + brk + lines[i + 1]]
        else:  # at an end of the row or of a value, where float() would strip ASCII whitespace
            edges = [0, len(lines[i])] + [k + d for k, ch in enumerate(lines[i]) if ch == "," for d in (0, 1)]
            k = edges[c % len(edges)]
            lines[i] = lines[i][:k] + brk + lines[i][k:]
    elif kind == "no_final_newline":
        return "\n".join(lines)
    elif kind == "cut_short":  # the last row cut off inside its first value, so no comma shows it
        first = lines[-1].split(",")[0]
        lines[-1] = first[: 1 + c % max(len(first), 1)]
        return "\n".join(lines)
    elif kind == "floor_below_header":
        lines.insert(1 + c % len(lines), lines.pop(0))
    elif kind == "header_spaces":
        lines[min(1, len(lines) - 1)] += ("  ", " \t")[a % 2]
    elif i + 1 < len(lines):  # balanced_commas: "1,2,3,4,5" over "6,7,8", as many commas as before
        head, *rest = lines[i + 1].split(",")
        lines[i : i + 2] = [f"{lines[i]},{head}", ",".join(rest)]
    return "\n".join(lines) + "\n"


def _apply(files: dict[str, str], kind: str, a: int, b: int, c: int) -> str:
    """Mutate ``files`` in place; returns the path of the file changed."""
    sweeps = sorted(rel for rel in files if rel != MANIFEST)
    if kind == "manifest":
        files[MANIFEST] = _mutate_manifest(files[MANIFEST], a, b, c)
        return MANIFEST
    if kind == "line_endings":
        rel = sorted(files)[a % len(files)]
        files[rel] = files[rel].replace("\n", ("\r\n", "\r")[c % 2])
        return rel
    rel = sweeps[a % len(sweeps)]
    files[rel] = _mutate_lines(kind, files[rel], a // len(sweeps), b, c)
    return rel


def _outcome(ingest, manifest: Path):
    try:
        campaign = ingest(manifest)
    except Exception as err:  # compared with the oracle's, whatever it is
        return None, err
    return campaign, None


def _kind(err: Exception, root: Path) -> str:
    """The error's type and message without paths, lines and numbers, to tally outcomes."""
    message = str(err).replace(str(root), "").rsplit(": ", 1)[-1]
    return f"{type(err).__name__}: " + re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?|nan|inf", "N", message)


def mutations_of(kinds) -> st.SearchStrategy:
    return st.tuples(st.sampled_from(kinds), st.integers(0, 2**16), st.integers(0, 2**16), st.integers(0, 2**16))


def _check_same_outcome(files: dict[str, str], touched: set[str]) -> str:
    """Write ``files`` and ingest them with both readers: equal campaigns, or
    equal errors.  Returns the outcome, to tally."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sweeps").mkdir()
        for rel, text in files.items():
            (root / rel).write_bytes(text.encode("utf-8"))
        expected, expected_err = _outcome(oracle_ingest_campaign, root / MANIFEST)
        actual, actual_err = _outcome(ingest_campaign, root / MANIFEST)
        if expected_err is None:
            assert actual_err is None, f"oracle accepted, batched raised {actual_err!r}"
            assert actual == expected
            assert repr(actual) == repr(expected)  # also tells -0.0 from 0.0
            assert actual.input_sha256 == expected.input_sha256
        else:
            assert actual_err is not None, f"oracle raised {expected_err!r}, batched accepted"
            assert (type(actual_err), str(actual_err)) == (type(expected_err), str(expected_err))
            assert isinstance(actual_err, (CampaignFormatError, ValidationError))
            assert any(str(root / rel) in str(actual_err) for rel in touched), str(actual_err)
        return "accepted" if expected_err is None else _kind(expected_err, root)


def _check_mutated(campaign_files: dict[str, str], mutations) -> None:
    files = dict(campaign_files)
    touched = {_apply(files, *m) for m in mutations}
    event(_check_same_outcome(files, touched))


@settings(max_examples=600, derandomize=True)
@given(mutations=st.lists(mutations_of(MUTATIONS), min_size=1, max_size=2))
def test_batched_ingest_matches_line_by_line_reader(campaign_files, mutations):
    _check_mutated(campaign_files, mutations)


@settings(max_examples=300, derandomize=True)
@given(mutations=st.lists(mutations_of(LANE_MUTATIONS + MUTATIONS), min_size=1, max_size=2))
def test_lean_lane_edges_match_line_by_line_reader(campaign_files, mutations):
    _check_mutated(campaign_files, mutations)


@settings(max_examples=200, derandomize=True)
@given(mutations=st.lists(mutations_of(("manifest",)), min_size=1, max_size=2))
def test_manifest_edits_match_line_by_line_reader(campaign_files, mutations):
    # the mix above draws few manifest edits, and they hold most of the manifest's distinct faults
    _check_mutated(campaign_files, mutations)


#: edits of one whole manifest entry: the entry replaced by a value that is not an object, a NUL
#: in its sweep path, a polarization in the wrong case, a key neither reader knows
ENTRY_EDITS = {
    "list": lambda entry: [],
    "string": lambda entry: "x",
    "null": lambda entry: None,
    "nul in sweeps": lambda entry: {**entry, "sweeps": entry["sweeps"].replace("/", "/\0", 1)},
    "vv": lambda entry: {**entry, "polarization": "vv"},
    "unknown key": lambda entry: {**entry, "note": "an extra key"},
}


@pytest.mark.parametrize("position", [0, 3, -1], ids=["first", "middle", "last"])
@pytest.mark.parametrize("edit", list(ENTRY_EDITS))
def test_entry_edits_match_line_by_line_reader(campaign_files, edit, position):
    files = dict(campaign_files)
    doc = json.loads(files[MANIFEST])
    doc["locations"][position] = ENTRY_EDITS[edit](doc["locations"][position])
    files[MANIFEST] = json.dumps(doc, indent=2)
    _check_same_outcome(files, {MANIFEST})


def test_pointing_keeps_the_azimuths_of_its_first_row(campaign_files):
    # -0.0 and 0.0 are one pointing; its first row (not its lowest delay) spells it
    files = dict(campaign_files)
    rel = sorted(rel for rel in files if rel != MANIFEST)[0]
    lines = files[rel].split("\n")
    assert lines[2].startswith("180.0,0.0,") and lines[3].startswith("180.0,0.0,")
    lines[2], lines[3] = lines[3].replace(",0.0,", ",-0.0,", 1), lines[2]
    files[rel] = "\n".join(lines)
    assert _check_same_outcome(files, {rel}) == "accepted"


def _divisors_of_360(bins_at_least: int) -> list[float]:
    return [float(s) for s in range(1, 361) if 360 % s == 0 and 360 // s >= bins_at_least]


@st.composite
def synthesis_params(draw) -> SynthesisParams:
    step = draw(st.sampled_from(_divisors_of_360(6)))
    max_lobes = draw(st.integers(1, min(7, round(360.0 / step) // 3)))
    min_lobes = draw(st.integers(1, max_lobes))
    lo = draw(st.floats(1.6, 30.0))
    finite = dict(allow_nan=False, allow_infinity=False)
    return SynthesisParams(
        ple=draw(st.floats(0.5, 5.0)),
        nlos_ple=draw(st.floats(0.5, 6.0)),
        shadow_sigma_db=draw(st.floats(0.0, 8.0)),
        xpd_boresight=XpdLaw(draw(st.floats(-10.0, 50.0, **finite)), draw(st.floats(0.0, 8.0))),
        xpd_reflection=XpdLaw(draw(st.floats(-10.0, 50.0, **finite)), draw(st.floats(0.0, 8.0))),
        lobe_count_law=LobeCountLaw(draw(st.floats(min_lobes, max_lobes)), min_lobes, max_lobes),
        rmsds_law=RmsdsLaw(draw(st.floats(0.0, 4.0)), draw(st.floats(0.0, 1.5))),
        carrier_hz=draw(st.floats(1e9, 1e12)),
        az_step_deg=step,
        delay_resolution_ns=draw(st.sampled_from((0.5, 1.0, 2.0, 2.5, 4.0))),
        distance_range_m=(lo, lo + draw(st.floats(0.5, 40.0))),
    )


@settings(max_examples=30, derandomize=True)
@given(params=synthesis_params(), placements=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_write_ingest_write_is_byte_identical(params, placements, seed):
    with tempfile.TemporaryDirectory() as tmp:
        first = render_campaign(params, placements, seed, Path(tmp) / "a").manifest_path
        second = write_campaign(ingest_campaign(first), Path(tmp) / "b")
        names = sorted(str(p.relative_to(first.parent)) for p in first.parent.rglob("*") if p.is_file())
        assert names == sorted(str(p.relative_to(second.parent)) for p in second.parent.rglob("*") if p.is_file())
        for name in names:
            assert (first.parent / name).read_bytes() == (second.parent / name).read_bytes(), name


@settings(max_examples=15, derandomize=True)
@given(params=synthesis_params(), placements=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_written_campaigns_skip_the_line_loop(params, placements, seed):
    with tempfile.TemporaryDirectory() as tmp:
        manifest = render_campaign(params, placements, seed, Path(tmp)).manifest_path
        read = _SweepRows.read
        with mock.patch.object(_SweepRows, "read", autospec=True, side_effect=read) as line_loop:
            ingest_campaign(manifest)
        assert line_loop.call_count == 0
