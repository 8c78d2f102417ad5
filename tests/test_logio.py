"""File ingestion, persistence, and org splitting."""

import hashlib
import random
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubles import make_random_log

from enclavemine.logio import (
    LogIoError,
    MissingAttribute,
    MissingOrg,
    UnparsableTimestamp,
    load_csv,
    load_log,
    load_xes,
    parse_timestamp,
    save_csv,
    split_log,
)
from enclavemine.model import Event, EventLog, iid_set, log_from_events, merge_all
from enclavemine.scenario import default_org_map, generate_scenario_log, org_map_for
from enclavemine.wire import encode_log


class TestTimestamps:
    def test_integer_passthrough(self):
        assert parse_timestamp("1657789560000") == 1657789560000
        assert parse_timestamp(" 42 ") == 42

    def test_iso_utc(self):
        assert parse_timestamp("1970-01-01T00:00:01") == 1000
        assert parse_timestamp("1970-01-01T00:00:01Z") == 1000
        assert parse_timestamp("1970-01-01T00:00:01+00:00") == 1000

    def test_iso_with_offset(self):
        assert parse_timestamp("1970-01-01T01:00:00+01:00") == 0

    def test_subsecond_precision(self):
        assert parse_timestamp("1970-01-01T00:00:00.123Z") == 123

    def test_rejects_garbage(self):
        for bad in ("", "  ", "yesterday", "2022-13-90T99:00:00"):
            with pytest.raises(UnparsableTimestamp):
                parse_timestamp(bad)

    def test_rejects_a_time_before_1970(self):
        for bad in ("-5", "1969-12-31T23:59:59Z"):
            with pytest.raises(UnparsableTimestamp, match="before 1970"):
                parse_timestamp(bad)


def test_fixture_files_load(three_partitions):
    assert len(three_partitions["hospital"]) == 19
    assert len(three_partitions["pharma"]) == 6
    assert len(three_partitions["clinic"]) == 5
    assert iid_set(three_partitions["hospital"]) == {"312", "711"}
    assert iid_set(three_partitions["clinic"]) == {"312"}
    # File stem is the default provisioner id.
    assert {ev.provisioner_id for ev in three_partitions["pharma"]} == {"pharma"}


def test_custom_iid_column_required(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("case,activity,timestamp\nc1,A,5\n")
    with pytest.raises(MissingAttribute):
        load_csv(f, iid_column="OrderID")


def test_missing_core_column(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("case,activity\nc1,A\n")
    with pytest.raises(MissingAttribute):
        load_csv(f)


def test_unknown_columns_become_extras(tmp_path):
    f = tmp_path / "ward.csv"
    f.write_text(
        textwrap.dedent(
            """\
            case,activity,timestamp,ward,nurse
            c1,admit,1000,3A,
            c1,treat,2000,3B,kim
            """
        )
    )
    log = load_csv(f)
    assert log.events[0].extras == (("ward", "3A"),)
    assert log.events[1].extras == (("nurse", "kim"), ("ward", "3B"))


def test_csv_timestamp_before_1970_rejected(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("case,activity,timestamp\nc1,A,5\nc1,B,-5\n")
    with pytest.raises(UnparsableTimestamp, match="'-5' is before 1970"):
        load_csv(f)


def test_csv_row_short_of_a_required_field_rejected(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("case,activity,timestamp\nc1,A,5\nc1,B\n")
    with pytest.raises(MissingAttribute, match="line 3 has fewer fields"):
        load_csv(f)


def test_generated_event_ids_are_unique(tmp_path):
    f = tmp_path / "gen.csv"
    f.write_text("case,activity,timestamp\nc1,A,1\nc1,B,2\n")
    log = load_csv(f)
    event_ids = {ev.event_id for ev in log}
    assert len(event_ids) == 2
    assert all(eid.startswith("gen-r") for eid in event_ids)


def test_save_load_round_trip(tmp_path, three_partitions):
    log = merge_all(three_partitions.values())
    out = tmp_path / "out.csv"
    save_csv(log, out)
    assert load_csv(out) == log


def test_load_log_dispatches_on_suffix(tmp_path, hospital_log):
    out = tmp_path / "h.csv"
    save_csv(hospital_log, out)
    assert load_log(out) == hospital_log
    xes = tmp_path / "h.XES"
    xes.write_text(_XES)
    assert load_log(xes) == load_xes(xes)


_XES = """\
<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <trace>
    <string key="concept:name" value="case-9"/>
    <event>
      <string key="concept:name" value="register"/>
      <date key="time:timestamp" value="2022-07-14T10:36:00Z"/>
      <string key="org:resource" value="alice"/>
    </event>
    <event>
      <string key="concept:name" value="approve"/>
      <date key="time:timestamp" value="2022-07-14T11:00:00Z"/>
    </event>
  </trace>
</log>
"""


def test_xes_subset(tmp_path):
    f = tmp_path / "public.xes"
    f.write_text(_XES)
    log = load_xes(f)
    assert len(log) == 2
    assert iid_set(log) == {"case-9"}
    assert log.activities() == ("register", "approve")
    assert log.events[0].extras == (("org:resource", "alice"),)
    assert log.events[0].provisioner_id == "public"
    assert log.events[0].timestamp == parse_timestamp("2022-07-14T10:36:00Z")


def test_xes_extras_sorted_by_key(tmp_path):
    f = tmp_path / "public.xes"
    f.write_text(
        _XES.replace(
            '<string key="org:resource" value="alice"/>',
            '<string key="zone" value="north"/><string key="cost" value="12"/>',
        )
    )
    assert load_xes(f).events[0].extras == (("cost", "12"), ("zone", "north"))


def test_xes_event_before_1970_rejected(tmp_path):
    f = tmp_path / "public.xes"
    f.write_text(_XES.replace("2022-07-14T11:00:00Z", "1969-07-20T20:17:40Z"))
    with pytest.raises(UnparsableTimestamp, match="before 1970"):
        load_xes(f)


def test_xes_that_is_not_xml_rejected(tmp_path):
    f = tmp_path / "public.xes"
    f.write_text(_XES[: len(_XES) // 2])
    with pytest.raises(LogIoError, match="not well-formed XML"):
        load_xes(f)


def test_xes_requires_trace_name(tmp_path):
    f = tmp_path / "bad.xes"
    f.write_text(_XES.replace("concept:name\" value=\"case-9", "other\" value=\"x"))
    with pytest.raises(MissingAttribute):
        load_xes(f)


def test_split_log_covers_and_relabels():
    log = generate_scenario_log(12, seed=3)
    parts = split_log(log, default_org_map())
    assert set(parts) <= {"hospital", "pharma", "clinic"}
    for org, part in parts.items():
        assert {ev.provisioner_id for ev in part} == {org}
    assert sum(len(p) for p in parts.values()) == len(log)
    # The generator already labels events with the same map, so the split is
    # the inverse of merging.
    assert merge_all(parts.values()) == log


def test_split_log_rejects_unmapped_activity():
    log = EventLog(
        (Event(event_id="e", iid="c", activity="MYSTERY", timestamp=0, provisioner_id="p"),)
    )
    with pytest.raises(MissingOrg, match="MYSTERY"):
        split_log(log, {"OTHER": "org1"})


@pytest.mark.parametrize(
    "n_orgs,digest",
    [
        # The generator labels events with org_map_for(3): nothing is relabeled.
        (3, "4dd650b3bf8a97f4ad748061ae83844bcb3e8ba6d04e2eb690be6f98e9df8595"),
        # Every event moves to an org named org1..org5.
        (5, "574406fba48a59c0450163ff10d56f2cd63fc342b5d546d2b93ab28bfd2586b1"),
    ],
)
def test_split_log_partitions_are_pinned(n_orgs, digest):
    log = generate_scenario_log(400, 3)
    h = hashlib.sha256()
    for org, part in split_log(log, org_map_for(n_orgs)).items():
        h.update(org.encode() + b"\0" + encode_log(part))
    assert h.hexdigest() == digest


def test_split_log_reorders_events_a_relabel_moves_past_each_other():
    # Canonical order breaks a timestamp tie by provisioner id, then event id:
    # k2 (from a) comes before k1 (from b), but both land in z, where k1 wins.
    log = EventLog(
        (
            Event(event_id="k2", iid="c", activity="X", timestamp=5, provisioner_id="a"),
            Event(event_id="k1", iid="c", activity="Y", timestamp=5, provisioner_id="b"),
        )
    )
    parts = split_log(log, {"X": "z", "Y": "z"})
    assert [ev.event_id for ev in parts["z"]] == ["k1", "k2"]


@given(st.integers(0, 2**32 - 1), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_split_log_is_the_sorted_relabeled_events_per_org(seed, n_orgs):
    rng = random.Random(seed)
    log = make_random_log(rng, rng.randint(1, 8), ["org1", "org2", "p"])
    org_map = {act: "org%d" % rng.randint(1, n_orgs) for act in "ABCDEFGH"}
    expected = {}
    for ev in log:
        expected.setdefault(org_map[ev.activity], []).append(
            ev._replace(provisioner_id=org_map[ev.activity])
        )
    parts = split_log(log, org_map)
    assert list(parts) == sorted(expected)
    for org, part in parts.items():
        assert part == log_from_events(expected[org])
