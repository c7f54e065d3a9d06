"""``repro report`` reads every artifact through one schema-tag table.

One valid artifact per tag of :func:`repro.telemetry.report.artifact_kinds`
is written by the command that ships it; a property then replaces one field
of it with any JSON value and requires ``repro report`` to either render or
exit with a one-line message — never a traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaign.manifest import MANIFEST_SCHEMA, RunManifest
from repro.cli import main as cli_main
from repro.experiments.cache import ARTIFACT_SCHEMA
from repro.jsonio import decode, load_json
from repro.runtime.loadgen import RUNTIME_ARTIFACT_SCHEMA
from repro.telemetry import SNAPSHOT_SCHEMA
from repro.telemetry.report import artifact_kinds, load_artifact
from repro.tracing import TRACE_SCHEMA

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def quiet(argv):
    """``cli_main(argv)`` with its stdout captured; returns ``(code, text)``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """``name -> path`` of one shipped artifact per schema tag (two for results)."""
    root = tmp_path_factory.mktemp("artifacts")
    paths = {name: str(root / name) for name in ("metrics", "trace", "results", "rt", "camp")}
    quiet(
        [
            "run", "smoke", "--set", "duration=3", "--set", "drain_time=1", "--no-cache",
            "--json", paths["results"], "--trace", paths["trace"],
            "--telemetry", f"jsonl:{paths['metrics']}",
        ]
    )
    quiet(
        [
            "loadgen", "--set", "nodes=4", "--transport", "memory", "--duration", "0.3",
            "--rate", "50", "--drain", "0.1", "--json", paths["rt"],
        ]
    )
    quiet(
        [
            "campaign", os.path.join(EXAMPLES, "mini_campaign.json"),
            "--cache-dir", str(root / "cache"), "--out-dir", paths["camp"],
        ]
    )
    paths["cache-entry"] = str(sorted((root / "cache").glob("*/*.json"))[0])
    paths["manifest"] = os.path.join(paths["camp"], "manifest.json")
    del paths["camp"]
    return paths


TAGS = {
    "metrics": SNAPSHOT_SCHEMA,
    "trace": TRACE_SCHEMA,
    "results": ARTIFACT_SCHEMA,
    "cache-entry": ARTIFACT_SCHEMA,
    "rt": RUNTIME_ARTIFACT_SCHEMA,
    "manifest": MANIFEST_SCHEMA,
}


def test_every_tag_of_the_table_has_a_shipped_artifact(artifacts):
    assert set(TAGS.values()) == set(artifact_kinds())
    for name, path in artifacts.items():
        assert load_artifact(path).schema == TAGS[name], name
        code, text = quiet(["report", path])
        assert code == 0 and text.strip(), name


def test_manifest_round_trips_through_the_walker(artifacts):
    payload = load_json(artifacts["manifest"], MANIFEST_SCHEMA, ValueError, "manifest")
    manifest = decode(RunManifest, payload, ValueError, "manifest", MANIFEST_SCHEMA)
    assert manifest.to_dict() == payload
    assert not {"totals", "cache_hits", "computed", "name"} & (
        set(payload) | set(next(iter(payload["services"].values())))
    )


def documents(path):
    """The JSON objects of an artifact file: one per line for a stream."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if text.startswith("{\n"):
        return [json.loads(text)], False
    return [json.loads(line) for line in text.splitlines() if line.strip()], True


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=12), children, max_size=4),
    max_leaves=10,
)


def report_renders_or_exits_with_one_line(path):
    try:
        code, _ = quiet(["report", path])
    except SystemExit as exit:
        message = str(exit.code)
        assert message and "\n" not in message, message
        return
    assert code == 0


@pytest.mark.parametrize("name", sorted(TAGS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_one_field_replaced_renders_or_exits_cleanly(artifacts, name, tmp_path, data):
    records, lines = documents(artifacts[name])
    index = data.draw(st.integers(0, len(records) - 1), label="record")
    record = dict(records[index])
    key = data.draw(st.sampled_from(sorted(record)), label="field")
    record[key] = data.draw(JSON, label="value")
    records = records[:index] + [record] + records[index + 1 :]
    path = tmp_path / "mutated"
    if lines:
        path.write_text("".join(json.dumps(entry) + "\n" for entry in records))
    else:
        path.write_text(json.dumps(record, indent=2))
    report_renders_or_exits_with_one_line(str(path))


@pytest.mark.parametrize(
    "payload, message",
    [
        ({"schema": "campaign-manifest/v1", "services": []}, "has schema 'campaign-manifest/v1'"),
        ({"schema": "campaign-manifest/v2", "services": {}}, "has schema 'campaign-manifest/v2'"),
        ({"schema": MANIFEST_SCHEMA, "services": []}, "services' must be a mapping"),
        ({"schema": RUNTIME_ARTIFACT_SCHEMA, "load": None}, "load spec must be a mapping"),
        ({"schema": ARTIFACT_SCHEMA, "result": {"config": {}}}, "is malformed: KeyError"),
        ({"schema": True, "results": []}, "has schema True; expected"),
        ({"schema": [1], "results": []}, r"has schema \[1\]; expected"),
    ],
)
def test_malformed_artifacts_exit_with_one_line(tmp_path, payload, message):
    path = tmp_path / "artifact.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SystemExit, match=message) as exit:
        cli_main(["report", str(path)])
    assert "\n" not in str(exit.value.code)


def test_trace_rejects_other_artifacts_by_schema(artifacts):
    with pytest.raises(SystemExit, match="contains no trace spans.*schema is 'rt-load/v1'"):
        cli_main(["trace", artifacts["rt"]])

