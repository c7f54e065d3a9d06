"""The JSON boundary (``repro.jsonio``): one walker, one loader, one writer.

* hypothesis round trips ``decode(encode(x)) == x`` over ``FaultSpec``,
  ``TopologySpec`` and ``StackSpec`` — all three through the same walker;
* one table of malformed payloads run through every route a spec can arrive
  by (direct codec, fault-plan wrapper, ``StackSpec`` section), asserting the
  route's own error class and a message naming the field;
* the file boundary: ``load_json`` errors name the path, ``write_json`` is
  atomic and canonical, the JSON-lines sink/reader pair serves snapshots and
  spans alike;
* byte identity of the three artifacts of one ``run smoke`` against sha256
  literals captured on the commit before ``jsonio`` existed;
* the CLI: an unreadable ``--topology`` file and an unwritable ``--json``
  target are one-line errors.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.reliability import ReliabilityReport, measure_reliability
from repro.campaign.spec import CampaignError, CampaignSpec
from repro.cli import main as cli_main
from repro.faults import FAULT_KINDS, FaultPlan, FaultPlanError, FaultSpec
from repro.gossip.buffers import SELECTION_STRATEGIES
from repro.jsonio import (
    ALL_FIELDS,
    JsonlSink,
    MemorySink,
    annotation_at,
    bound_of,
    encode,
    load_json,
    read_jsonl,
    write_json,
)
from repro.pubsub import DeliveryLog, SubscriptionTable
from repro.registry import RegistryError, StackSpec
from repro.registry.builtins import check_kinds
from repro.registry.specs import (
    FaultChurnSpec,
    FaultPartitionSpec,
    FaultPerturbSpec,
    FaultsSpec,
    InterestSpec,
    MembershipSpec,
    PolicySpec,
    SystemSpec,
    TelemetrySpec,
    WorkloadSpec,
)
from repro.telemetry import SNAPSHOT_SCHEMA, Telemetry, TelemetrySnapshot
from repro.telemetry.report import load_artifact
from repro.topology import TopologyError, TopologySpec
from repro.topology.spec import BRIDGE_POLICIES
from repro.tracing import PUBLISH, TRACE_SCHEMA, SpanRecord

# ---------------------------------------------------------------------------
# Round trips through the one walker
# ---------------------------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0)
names = st.text(max_size=6)
name_tuples = st.lists(names, max_size=3).map(tuple)


def admitted(record_class, name):
    """Every finite number the field's declared bound admits (read off its annotation)."""
    annotation = annotation_at(record_class, name)
    bound = bound_of(annotation)
    if annotation.__origin__ is int:
        return st.integers(min_value=bound.low + bound.open_low, max_value=bound.high)
    return st.floats(
        min_value=bound.low,
        max_value=bound.high,
        exclude_min=bound.open_low,
        exclude_max=bound.open_high,
        allow_nan=False,
        allow_infinity=False,
    )


def bounded_fields(record_class, *names):
    return {name: admitted(record_class, name) for name in names}


fault_specs = st.builds(
    FaultSpec,
    kind=st.sampled_from(FAULT_KINDS),
    nodes=name_tuples,
    protected=name_tuples,
    groups=st.lists(st.tuples(names, st.integers()), max_size=3).map(tuple),
    domains=name_tuples,
    rng_stream=names,
    **bounded_fields(
        FaultSpec,
        "at",
        "until",
        "period",
        "down_probability",
        "up_probability",
        "heal_after",
        "fraction",
        "extra_latency",
        "loss_rate",
    ),
)

#: Only specs that pass ``TopologySpec.validate`` (``from_dict`` runs it).
topology_specs = st.builds(
    TopologySpec,
    domains=st.integers(min_value=0, max_value=16),
    bridges_per_domain=st.integers(min_value=1, max_value=4),
    bridge_policy=st.sampled_from(BRIDGE_POLICIES),
    cross_latency=st.floats(min_value=0.0, max_value=1e6),
    cross_loss=unit,
    assignment=st.lists(st.tuples(names, names), max_size=3, unique_by=lambda pair: pair[0]).map(
        tuple
    ),
    geo=st.lists(
        st.tuples(names, names, st.floats(min_value=0.0, max_value=1e6), unit), max_size=3
    ).map(tuple),
)


@st.composite
def stack_specs(draw):
    """Only specs that pass ``StackSpec.validate`` (``from_dict`` runs it).

    Fault times fall inside the publication phase and the domain count is
    at most the node count, so the compiled plan and domain map are valid.
    """
    nodes = draw(st.integers(min_value=1, max_value=64))
    duration = draw(admitted(StackSpec, "duration"))
    window = st.floats(min_value=0.0, max_value=duration)
    churn = st.builds(
        FaultChurnSpec,
        down_probability=st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        start=window,
        **bounded_fields(FaultChurnSpec, "up_probability", "period"),
    )
    partition = st.builds(
        FaultPartitionSpec,
        at=window,
        heal_after=st.floats(min_value=1e-3, max_value=1e6),
        fraction=admitted(FaultPartitionSpec, "fraction"),
    )
    perturb = st.builds(
        FaultPerturbSpec,
        start=window,
        extra_latency=st.floats(min_value=1e-3, max_value=1e6),
        loss_rate=unit,
    )
    crashes = st.builds(
        FaultSpec, kind=st.just("crash"), at=window, nodes=st.lists(names, min_size=1).map(tuple)
    )
    return draw(
        st.builds(
            StackSpec,
            name=names,
            nodes=st.just(nodes),
            seed=st.integers(),
            duration=st.just(duration),
            drain_time=admitted(StackSpec, "drain_time"),
            loss_rate=admitted(StackSpec, "loss_rate"),
            system=st.builds(
                SystemSpec,
                kind=names,
                adapt_fanout=st.booleans(),
                selection_strategy=st.sampled_from(SELECTION_STRATEGIES),
                **bounded_fields(SystemSpec, "fanout", "alpha", "stripes", "buffer_capacity"),
            ),
            membership=st.builds(MembershipSpec, kind=names),
            interest=st.builds(
                InterestSpec, kind=names, **bounded_fields(InterestSpec, "topics_per_node")
            ),
            workload=st.builds(
                WorkloadSpec,
                **bounded_fields(WorkloadSpec, "topics", "publication_rate", "publisher_fraction"),
            ),
            policy=st.builds(PolicySpec, kind=names),
            faults=st.builds(
                FaultsSpec,
                churn=st.one_of(st.just(FaultChurnSpec()), churn),
                partition=st.one_of(st.just(FaultPartitionSpec()), partition),
                perturb=st.one_of(st.just(FaultPerturbSpec()), perturb),
                plan=st.lists(crashes.map(FaultSpec.to_pairs), max_size=2).map(tuple),
            ),
            topology=st.builds(
                TopologySpec,
                domains=st.integers(min_value=0, max_value=nodes),
                bridges_per_domain=st.integers(min_value=1, max_value=4),
                cross_loss=unit,
            ),
            telemetry=st.builds(
                TelemetrySpec,
                sinks=name_tuples,
                period=st.floats(min_value=1e-6, max_value=1e6),
            ),
        )
    )


def through_json(payload):
    """``payload`` as a JSON parser hands it back (tuples gone, ints/floats kept)."""
    return json.loads(json.dumps(payload))


class TestRoundTrips:
    @given(fault_specs)
    def test_fault_spec(self, spec):
        assert FaultSpec.from_dict(through_json(dict(spec.to_pairs()))) == spec
        assert FaultSpec.from_pairs(through_json(spec.to_pairs())) == spec
        assert FaultPlan.from_dict(through_json({"faults": [dict(spec.to_pairs())]})).entries == (spec,)

    @given(topology_specs)
    def test_topology_spec(self, spec):
        assert TopologySpec.from_dict(through_json(encode(spec, sparse=ALL_FIELDS))) == spec

    @settings(max_examples=60)
    @given(stack_specs())
    def test_stack_spec(self, spec):
        payload = through_json(spec.to_dict())
        try:
            check_kinds(spec)
        except RegistryError as refused:
            # ``from_dict`` validates, and validation refuses what the build would.
            with pytest.raises(RegistryError) as raised:
                StackSpec.from_dict(payload)
            assert str(raised.value) == str(refused)
        else:
            assert StackSpec.from_dict(payload) == spec

    def test_defaults_encode_to_nothing_and_sections_stay_out(self):
        assert encode(TopologySpec(), sparse=ALL_FIELDS) == {}
        assert FaultSpec().to_pairs() == (("kind", "crash"),)
        payload = StackSpec().to_dict()
        assert not {"faults", "topology", "telemetry"} & set(payload)
        assert StackSpec().with_value("topology.domains", 2).to_dict()["topology"] == {"domains": 2}

    def test_output_records_round_trip(self):
        telemetry = Telemetry()
        telemetry.increment("events", 3, node="n0")
        telemetry.set_gauge("level", 2, node="n0")
        for value in (0.0, -1.5, 2.5):
            telemetry.observe("latency", value)
        snapshot = telemetry.snapshot(at=4.0)
        payload = through_json(snapshot.to_dict())
        assert payload["schema"] == "telemetry-snapshot/v1"
        assert TelemetrySnapshot.from_dict(payload) == snapshot
        with pytest.raises(ValueError, match="'counters'.* must be a number"):
            TelemetrySnapshot.from_dict({**payload, "counters": [["events", [], "3"]]})
        reliability = through_json(measure_reliability([], DeliveryLog(), SubscriptionTable()).to_dict())
        with pytest.raises(ValueError, match="invalid .*'interested' and 'delivered'"):
            ReliabilityReport.from_dict({**reliability, "events": [{"event_id": "e"}]})


# ---------------------------------------------------------------------------
# Malformed input: one table, every route
# ---------------------------------------------------------------------------

#: (bad fault entry, the field the message must name)
BAD_FAULT_ENTRIES = [
    ({"kind": "crash", "at": "2"}, "'at'"),
    ({"kind": "crash", "nodes": "node-001"}, "'nodes'"),
    ({"kind": 3}, "'kind'"),
    ({"kind": "perturb", "loss_rate": True}, "'loss_rate'"),
    ({"kind": "crash", "nodes": [1]}, r"'nodes'\[0\]"),
    ({"kind": "partition", "groups": [["a", "b"]]}, r"'groups'\[0\]\[1\]"),
    ({"kind": "partition", "groups": [["a", True]]}, r"'groups'\[0\]\[1\]"),
    ({"kind": "partition", "groups": [["a"]]}, r"'groups'\[0\]"),
    ({"kind": "crash", "nodez": ["a"]}, "nodez"),
]

#: (bad topology payload, the field the message must name)
BAD_TOPOLOGIES = [
    ({"geo": [["d0", "d1"]]}, r"'geo'\[0\]"),
    ({"geo": [["d0", "d1", "fast", 0.0]]}, r"'geo'\[0\]\[2\]"),
    ({"domains": 1.5}, "'domains'"),
    ({"domains": "4"}, "'domains'"),
    ({"cross_loss": False}, "'cross_loss'"),
    ({"assignment": "x"}, "'assignment'"),
    ({"assignment": [["n0"]]}, r"'assignment'\[0\]"),
    ({"bridge_policy": 7}, "'bridge_policy'"),
    ({"domans": 4}, "domans"),
    ({"domains": -1}, "topology.domains"),
    ({"geo": [["d0", "d1", 1.0, 3.0]]}, r"topology.geo\[0\]\[3\] must be within \[0, 1\]"),
    ({"geo": [["d0", "d1", -1.0, 0.0]]}, r"topology.geo\[0\]\[2\] must be non-negative"),
]

#: (bad StackSpec payload, the field the message must name)
BAD_STACKS = [
    ({"duration": "5"}, "'duration'"),
    ({"loss_rate": True}, "'loss_rate'"),
    ({"nodes": 12.0}, "'nodes'"),
    ({"system": {"kind": 5}}, "'kind'"),
    ({"system": {"adapt_fanout": 1}}, "'adapt_fanout'"),
    ({"system": []}, "system spec"),
    ({"telemetry": {"sinks": "jsonl:out.jsonl"}}, "'sinks'"),
    ({"telemetry": {"sinks": [1]}}, r"'sinks'\[0\]"),
    ({"faults": {"churn": {"period": "1"}}}, "'period'"),
    ({"faults": {"plan": "x"}}, "'plan'"),
    ({"topology": {"assignment": [["node-000"]]}}, r"'assignment'\[0\]"),
]


class TestMalformedInput:
    @pytest.mark.parametrize("entry, field", BAD_FAULT_ENTRIES)
    def test_fault_entries_by_every_route(self, entry, field):
        with pytest.raises(FaultPlanError, match=field):
            FaultSpec.from_dict(entry)
        with pytest.raises(FaultPlanError, match=field):
            FaultSpec.from_pairs(list(entry.items()))
        with pytest.raises(FaultPlanError, match=field):
            FaultPlan.from_dict({"faults": [entry]})
        for shaped in (entry, [list(pair) for pair in entry.items()]):
            with pytest.raises(RegistryError, match=field):
                StackSpec.from_dict({"faults": {"plan": [shaped]}})

    @pytest.mark.parametrize("payload, field", BAD_TOPOLOGIES)
    def test_topologies_by_every_route(self, payload, field, tmp_path):
        with pytest.raises(TopologyError, match=field):
            TopologySpec.from_dict(payload)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"schema": "topology/v1", **payload}))
        with pytest.raises(TopologyError, match=field):
            TopologySpec.from_file(str(path))
        with pytest.raises(RegistryError, match=field):
            StackSpec.from_dict({"topology": payload})

    @pytest.mark.parametrize("payload, field", BAD_STACKS)
    def test_stack_sections(self, payload, field):
        with pytest.raises(RegistryError, match=field):
            StackSpec.from_dict(payload)

    def test_non_mappings_and_bad_pair_lists(self):
        with pytest.raises(FaultPlanError, match="fault entry must be a mapping"):
            FaultSpec.from_dict(["kind"])
        with pytest.raises(TopologyError, match="topology spec must be a mapping"):
            TopologySpec.from_dict([])
        with pytest.raises(RegistryError, match="StackSpec must be a mapping"):
            StackSpec.from_dict([])
        for pairs in ("at", {"at": 1}, [["at"]], [[["at"], 1]], ["at"]):
            with pytest.raises(FaultPlanError, match="pairs"):
                FaultSpec.from_pairs(pairs)


# ---------------------------------------------------------------------------
# Files: one loader, one writer, one JSON-lines sink and reader
# ---------------------------------------------------------------------------

LOADERS = [
    (FaultPlan.from_file, FaultPlanError, "fault-plan/v1"),
    (TopologySpec.from_file, TopologyError, "topology/v1"),
    (CampaignSpec.from_file, CampaignError, "campaign/v1"),
    # `repro report` / `repro trace`: any tag of its table, the first named.
    (load_artifact, ValueError, SNAPSHOT_SCHEMA),
]


class TestFiles:
    @pytest.mark.parametrize("load, error, schema", LOADERS)
    def test_every_loader_turns_file_problems_into_its_domain_error(
        self, load, error, schema, tmp_path
    ):
        missing = str(tmp_path / "missing.json")
        with pytest.raises(error, match="cannot read .*missing.json"):
            load(missing)
        with pytest.raises(error, match="cannot read"):
            load(str(tmp_path))  # a directory: unreadable, not absent
        path = tmp_path / "doc.json"
        path.write_text("{not json")
        with pytest.raises(error, match="doc.json.* is not valid JSON"):
            load(str(path))
        path.write_text("[1, 2]")
        with pytest.raises(error, match="doc.json.* must hold a JSON object"):
            load(str(path))
        path.write_text(json.dumps({"schema": "other/v9"}))
        with pytest.raises(error, match=f"doc.json.* has schema 'other/v9'; expected '{schema}'"):
            load(str(path))

    def test_load_json_returns_the_object(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"schema": "s/v1", "a": [1]}')
        assert load_json(str(path), "s/v1", ValueError, "doc") == {"schema": "s/v1", "a": [1]}
        path.write_text('{"a": [1]}')  # the tag is optional
        assert load_json(str(path), "s/v1", ValueError, "doc") == {"a": [1]}

    def test_write_json_is_canonical_atomic_and_creates_parents(self, tmp_path):
        path = tmp_path / "deep" / "er" / "doc.json"
        write_json(path, {"b": (1, 2), "a": {"z": 1.5}})
        assert path.read_text() == '{\n  "a": {\n    "z": 1.5\n  },\n  "b": [\n    1,\n    2\n  ]\n}\n'
        write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert os.listdir(path.parent) == ["doc.json"]  # no temp file left behind
        with pytest.raises(TypeError):
            write_json(path, {"a": object()})
        assert json.loads(path.read_text()) == {"a": 1}  # a failed write keeps the old file
        with pytest.raises(OSError):
            write_json(tmp_path / "deep", {"a": 1})  # the target is a directory
        assert sorted(os.listdir(tmp_path)) == ["deep"]

    def test_jsonl_sink_is_lazy_canonical_and_drops_after_close(self, tmp_path):
        path = tmp_path / "out" / "stream.jsonl"
        sink = JsonlSink(str(path))
        assert not path.parent.exists()  # building a sink touches nothing
        record = SpanRecord(ts=1.0, kind=PUBLISH, trace_id="e#1", span_id=0, node="n0")
        sink.emit(record)
        sink.close()
        sink.emit(record)  # dropped, and the file is not truncated by a re-open
        assert path.read_text() == (
            '{"hops":0,"kind":"publish","node":"n0","schema":"trace-span/v1",'
            '"span_id":0,"trace_id":"e#1","ts":1.0}\n'
        )
        early = JsonlSink(str(tmp_path / "early.jsonl"))
        early.open()
        assert (tmp_path / "early.jsonl").read_text() == ""
        early.close()
        with pytest.raises(OSError):
            JsonlSink(str(tmp_path)).open()

    def test_one_reader_serves_snapshots_and_spans_with_line_numbers(self, tmp_path):
        snapshot = Telemetry().snapshot(at=1.0)
        span = SpanRecord(ts=1.0, kind=PUBLISH, trace_id="e#1", span_id=0, node="n0")
        for name, record, schema in (
            ("snapshots.jsonl", snapshot, SNAPSHOT_SCHEMA),
            ("spans.jsonl", span, TRACE_SCHEMA),
        ):

            def read(path, schema=schema, decode=type(record).from_dict):
                return read_jsonl(path, schema, decode)

            path = tmp_path / name
            sink = JsonlSink(str(path))
            sink.emit(record)
            sink.emit(record)
            sink.close()
            assert read(str(path)) == [record, record]
            with open(path, "a", encoding="utf-8") as handle:
                handle.write('\n{"schema":"other/v1"}\n')
            with pytest.raises(ValueError, match=f"{name}:4: not a "):
                read(str(path))
            path.write_text("{torn")
            with pytest.raises(ValueError, match=f"{name}:1: not valid JSON"):
                read(str(path))
            path.write_text("\n\n")  # blank lines are skipped
            assert read_jsonl(str(path), "any/v1", dict) == []

    def test_memory_sink_is_one_bounded_ring(self):
        ring = MemorySink(capacity=2)
        for value in range(4):
            ring.emit(value)
        assert ring.records() == [2, 3]
        assert MemorySink().records() == []
        with pytest.raises(ValueError, match="capacity must be positive"):
            MemorySink(capacity=0)


# ---------------------------------------------------------------------------
# Same bytes as before jsonio, and one-line CLI errors
# ---------------------------------------------------------------------------

#: sha256 of the three artifacts of
#: ``run smoke --no-cache --json A --telemetry jsonl:B --trace C``, captured on
#: the parent of the commit that introduced ``repro.jsonio`` (PR 17's head) and
#: re-captured at 1.1.0, when the ``gossip:<node>`` stream of ``select`` changed.
PARENT_SHA256 = {
    "A.json": "a84c755674b7c7a29c36ae9d8b416bfe81ea570c36efc108c5a9c4e330358d28",
    "B.jsonl": "7a96c3ef45bbbc84346e45397f14d9a81672d0a7a7f47166b918f690e24a03d6",
    "C.jsonl": "c15540cc5588b0884e82d0c3113c53be7e69671653a2f17463225799497d0de1",
}


class TestCli:
    def test_artifacts_are_byte_identical_to_the_parent_commit(self, tmp_path, capsys):
        paths = {name: tmp_path / name for name in PARENT_SHA256}
        argv = ["run", "smoke", "--no-cache", "--json", str(paths["A.json"])]
        argv += ["--telemetry", f"jsonl:{paths['B.jsonl']}", "--trace", str(paths["C.jsonl"])]
        assert cli_main(argv) == 0
        capsys.readouterr()
        digests = {
            name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()
        }
        assert digests == PARENT_SHA256

    @pytest.mark.parametrize(
        "command",
        [["run", "smoke", "--no-cache"], ["serve", "--duration", "0.1"], ["loadgen", "--duration", "0.1"]],
    )
    def test_unreadable_topology_file_is_a_one_line_error(self, command, tmp_path):
        with pytest.raises(SystemExit, match="cannot read topology file '/nonexistent.json'"):
            cli_main([*command, "--topology", "/nonexistent.json"])
        with pytest.raises(SystemExit, match="cannot read topology file"):
            cli_main([*command, "--topology", str(tmp_path)])
        with pytest.raises(SystemExit, match="cannot read fault plan '/nonexistent.json'"):
            cli_main([*command, "--fault", "/nonexistent.json"])

    def test_unwritable_json_target_is_a_one_line_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="cannot write --json artifact"):
            cli_main(["run", "smoke", "--no-cache", "--json", str(tmp_path)])
        fast = ["--transport", "memory", "--set", "nodes=4", "--duration", "0.2", "--drain", "0.1"]
        with pytest.raises(SystemExit, match="cannot write --json artifact"):
            cli_main(["loadgen", *fast, "--json", str(tmp_path)])
        capsys.readouterr()
        assert os.listdir(tmp_path) == []
