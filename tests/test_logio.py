"""File ingestion, persistence, and org splitting."""

import textwrap

import pytest

from enclavemine.logio import (
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
from enclavemine.model import Event, EventLog, iid_set, merge_all
from enclavemine.scenario import default_org_map, generate_scenario_log


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


def test_generated_event_ids_are_unique(tmp_path):
    f = tmp_path / "gen.csv"
    f.write_text("case,activity,timestamp\nc1,A,1\nc1,B,2\n")
    log = load_csv(f)
    assert len(log.event_ids()) == 2
    assert all(eid.startswith("gen-r") for eid in log.event_ids())


def test_save_load_round_trip(tmp_path, three_partitions):
    log = merge_all(three_partitions.values())
    out = tmp_path / "out.csv"
    save_csv(log, out)
    assert load_csv(out) == log


def test_round_trip_keeps_custom_iid_label(tmp_path, pharma_log):
    out = tmp_path / "p.csv"
    save_csv(pharma_log, out, iid_column="HospitalCaseID")
    assert out.read_text().splitlines()[0].startswith("HospitalCaseID,")
    assert load_csv(out, iid_column="HospitalCaseID") == pharma_log


def test_load_log_dispatches_on_suffix(tmp_path, hospital_log):
    out = tmp_path / "h.csv"
    save_csv(hospital_log, out)
    assert load_log(out) == hospital_log
    with pytest.raises(Exception):
        load_log(out, fmt="parquet")


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
        assert part.is_partition()
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
