"""The benchmark's own tests: generator, output check, span arithmetic and
speed scaling.

Run with:  PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import pytest

from check import check_pipeline, digest_mismatches, digest_tree
from forgepulse.ingest import parse_log_stream
from forgepulse.pipeline import ProjectSource, RunConfig, run_pipeline
from gen import REASONS, LogSpec, generate_log
from spans import Span, Tracer, layer_summary, running_shares, self_times

SMALL = LogSpec(commits=3000, months=36, authors=200, malformed_share=0.01,
                episodes=((1.0, 10.0, 0.3), (1.0, 25.0, 0.3)))


def test_generator_same_seed_same_bytes(tmp_path):
    a = generate_log(SMALL, 7, tmp_path / "a.log")
    b = generate_log(SMALL, 7, tmp_path / "b.log")
    c = generate_log(SMALL, 8, tmp_path / "c.log")
    other_stream = generate_log(SMALL, 7, tmp_path / "d.log", stream=1)
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.sha256 == b.sha256
    assert c.sha256 != a.sha256
    assert other_stream.sha256 != a.sha256


def test_generator_counts_match_the_parser(tmp_path):
    log = generate_log(SMALL, 3, tmp_path / "x.log")
    with log.path.open(encoding="utf-8") as handle:
        records, report = parse_log_stream(handle)
        merges = sum(1 for r in records if r.is_merge)
    assert set(log.skip_reasons) == set(REASONS)
    assert report.records_parsed + report.records_skipped == log.lines
    assert report.skip_reasons == log.skip_reasons
    assert report.records_parsed == log.records
    assert merges == log.merges


@pytest.fixture
def small_run(tmp_path):
    log = generate_log(SMALL, 5, tmp_path / "p.log")
    out = tmp_path / "out"
    outcome = run_pipeline(RunConfig(projects=(ProjectSource("p", log=log.path),), out_dir=out))
    assert outcome.exit_code == 0
    return out, {"p": log}


def test_output_check_passes_clean_artifacts(small_run):
    out, logs = small_run
    assert check_pipeline(out, logs, biphase=False) == {}


def test_output_check_catches_one_flipped_byte(small_run):
    out, _ = small_run
    before = digest_tree(out)
    path = out / "p" / "fit.json"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    problems = digest_mismatches("pipeline", before, digest_tree(out), "rerun")
    assert list(problems) == ["p"]
    assert problems["p"] == ["p/fit.json differs (rerun)"]


def test_output_check_catches_a_lost_record(small_run):
    out, logs = small_run
    records = out / "p" / "records.jsonl"
    records.write_text("".join(records.read_text().splitlines(keepends=True)[1:]))
    problems = check_pipeline(out, logs, biphase=False)
    assert list(problems) == ["p"]


def _span(id, name, start, end, parent, thread=1, busy=None, calls=1):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run="r",
                thread=thread, busy=end - start if busy is None else busy, calls=calls)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, "unit", 0.0, 10.0, None),
        _span(1, "series.build", 1.0, 7.0, 0),
        # 1000 folded parse calls spread over the build, 2 s in all
        _span(2, "ingest.parse", 1.1, 6.9, 1, busy=2.0, calls=1000),
        _span(3, "identity.resolve", 1.2, 6.8, 1, busy=0.5, calls=900),
        _span(4, "jsonio.artifacts_write", 8.0, 9.0, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 3.5, 2: 2.0, 3: 0.5, 4: 1.0})
    summary = layer_summary(spans)
    assert summary["busy"] == pytest.approx(10.0)
    assert summary["untraced"] == pytest.approx(3.0)
    assert summary["coverage"] == pytest.approx(0.7)
    assert summary["layers"]["series.build"] == pytest.approx(3.5)


def test_self_time_takes_out_the_hook_cost():
    spans = [
        _span(0, "series.build", 0.0, 5.0, None),
        # 1000 calls, 1 s timed; 0.2 ms of each call's hook cost sits inside
        # the timed window and 0.3 ms outside it, in the build's own time.
        _span(1, "ingest.parse", 0.1, 4.9, 0, busy=1.0, calls=1000),
    ]
    spans[1].cost_in, spans[1].cost_out = 2e-4, 3e-4
    assert self_times(spans) == pytest.approx({0: 3.7, 1: 0.8})
    summary = layer_summary(spans)
    assert summary["hook_cost"] == pytest.approx(0.5)
    assert summary["busy"] == pytest.approx(4.5)


def test_self_time_with_children_on_worker_threads():
    spans = [
        _span(0, "unit", 0.0, 10.0, None, thread=1),
        _span(1, "pipeline.project", 0.5, 6.0, 0, thread=2),
        _span(2, "pipeline.project", 4.0, 9.0, 0, thread=3),
        _span(3, "series.build", 1.0, 5.0, 1, thread=2),
    ]
    selfs = self_times(spans)
    # The workers overlap from 4 to 6: together they cover 0.5..9 of the unit.
    assert selfs == pytest.approx({0: 1.5, 1: 1.5, 2: 5.0, 3: 4.0})
    assert layer_summary(spans)["busy"] == pytest.approx(12.0)


def test_worker_thread_time_counts_only_while_its_thread_runs():
    spans = [
        _span(0, "unit", 0.0, 10.0, None, thread=1),
        # Two workers share the GIL: each runs for half of its 10 s.
        _span(1, "pipeline.project", 0.0, 10.0, 0, thread=2),
        _span(2, "pipeline.project", 0.0, 10.0, 0, thread=3),
        _span(3, "series.build", 0.0, 8.0, 1, thread=2),
        _span(4, "ingest.parse", 0.0, 8.0, 2, thread=3, busy=6.0, calls=100),
    ]
    spans[1].cpu = spans[2].cpu = 5.0
    assert running_shares(spans) == pytest.approx({0: 1.0, 1: 0.5, 2: 0.5, 3: 0.5, 4: 0.5})
    summary = layer_summary(spans)
    assert summary["layers"]["series.build"] == pytest.approx(4.0)
    assert summary["layers"]["ingest.parse"] == pytest.approx(3.0)
    assert summary["busy"] == pytest.approx(10.0)


def test_tracer_folds_leaf_calls_under_their_parent():
    tracer = Tracer("r")
    root = tracer.enter("unit")
    build = tracer.enter("series.build")
    for k in range(5):
        tracer.leaf("ingest.parse", float(k), k + 0.5)
    tracer.exit(build)
    tracer.leaf("ingest.parse", 10.0, 10.25)
    tracer.exit(root)
    folded = [s for s in tracer.spans if s.name == "ingest.parse"]
    assert [(s.parent, s.calls, s.busy) for s in folded] == [(build.id, 5, 2.5), (root.id, 1, 0.25)]


def test_speed_scale_uses_the_probes_during_the_unit():
    from run import REFERENCE_PROBE_S, speed_scale

    # (monotonic time, probe CPU time): the vCPU runs at half speed from t=2.
    speeds = [(0.5, REFERENCE_PROBE_S), (1.5, REFERENCE_PROBE_S), (2.5, 2 * REFERENCE_PROBE_S),
              (3.5, 2 * REFERENCE_PROBE_S)]
    assert speed_scale(speeds, 0.0, 2.0) == pytest.approx(1.0)
    assert speed_scale(speeds, 2.0, 4.0) == pytest.approx(0.5)
    assert speed_scale(speeds, 1.0, 3.0) == pytest.approx(2 / 3)
    # A unit between two probes takes the nearest one.
    assert speed_scale(speeds, 2.6, 2.8) == pytest.approx(0.5)
