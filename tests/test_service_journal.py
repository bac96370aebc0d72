"""The job journal: replay, torn tails, identity binding."""

from __future__ import annotations

import json

from repro.service.journal import JobJournal

SPEC = {"kind": "run", "design": {"type": "multiplier", "bits": 4},
        "config": {"arch": "ffet", "backside_pin_fraction": 0.5,
                   "utilization": 0.5}}
RECORD = {"label": "run", "ok": True, "result": {"valid": True},
          "wall_s": 0.1, "via": "executed", "attempts": 1}


def test_replay_rebuilds_jobs_runs_and_states(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.job_submitted("j0001", SPEC, 123.0)
    journal.run_settled("j0001", 0, RECORD)
    journal.job_state("j0001", "completed")
    journal.job_submitted("j0002", SPEC, 124.0)
    journal.run_settled("j0002", 1, dict(RECORD, label="u0.6"))
    journal.close()

    jobs = {j.id: j for j in JobJournal(path).replay()}
    assert set(jobs) == {"j0001", "j0002"}
    assert jobs["j0001"].state == "completed"
    assert jobs["j0001"].records == {0: RECORD}
    assert jobs["j0001"].submitted_s == 123.0
    assert jobs["j0002"].state == ""  # interrupted: no terminal event
    assert jobs["j0002"].records[1]["label"] == "u0.6"


def test_no_resume_starts_fresh(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.job_submitted("j0001", SPEC, 1.0)
    journal.close()
    assert JobJournal(path, resume=False).replay() == []
    # And the old content really is gone, not just skipped.
    assert JobJournal(path).replay() == []


def test_torn_tail_is_discarded(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.job_submitted("j0001", SPEC, 1.0)
    journal.run_settled("j0001", 0, RECORD)
    journal.close()
    with open(path, "a") as handle:  # simulated mid-write SIGKILL
        handle.write('{"ev": "run", "job": "j0001", "ind')

    jobs = JobJournal(path).replay()
    assert len(jobs) == 1
    assert jobs[0].records == {0: RECORD}


def test_malformed_event_truncates_the_replay_there(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.job_submitted("j0001", SPEC, 1.0)
    journal.close()
    with open(path, "a") as handle:
        handle.write(json.dumps({"ev": "run", "job": "j0001",
                                 "index": "zero", "record": {}}) + "\n")
        handle.write(json.dumps({"ev": "state", "job": "j0001",
                                 "state": "completed"}) + "\n")

    jobs = JobJournal(path).replay()
    # The bad run line and everything after it are dropped.
    assert jobs[0].records == {}
    assert jobs[0].state == ""


def test_identity_mismatch_starts_fresh(tmp_path, monkeypatch):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.job_submitted("j0001", SPEC, 1.0)
    journal.close()
    # Same file under another code version: results are content-addressed
    # by the code fingerprint, so the journal must not replay.
    monkeypatch.setattr("repro.service.journal.code_fingerprint",
                        lambda: "another-version")
    assert JobJournal(path).replay() == []


def test_events_for_unknown_jobs_are_dropped(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.run_settled("j9999", 0, RECORD)
    journal.job_state("j9999", "completed")
    journal.close()
    assert JobJournal(path).replay() == []


def test_append_after_replay_extends_the_same_file(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = JobJournal(path)
    journal.job_submitted("j0001", SPEC, 1.0)
    journal.close()

    second = JobJournal(path)
    assert len(second.replay()) == 1
    second.run_settled("j0001", 0, RECORD)
    second.close()

    jobs = JobJournal(path).replay()
    assert jobs[0].records == {0: RECORD}
