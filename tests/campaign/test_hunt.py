"""Hunt specs, the verdict layer and a small end-to-end hunt."""

import pytest

from repro.campaign import (
    CampaignRun,
    CampaignSpecError,
    build_hunt_report,
    default_hunt_spec,
    hunt_exit_code,
    load_hunt_spec,
    parse_hunt_spec,
    render_hunt_json,
    render_hunt_markdown,
    run_hunt,
)
from repro.campaign.hunt import HUNT_POLICY_DEFAULTS, tm_expectation
from repro.campaign.spec import expand_cell
from repro.tm import default_mutants


def _tiny(**overrides):
    data = {
        "name": "t",
        "mutants": ["tl2/drop-rvalidate", "tl2/shuffle-lock-order"],
        "controls": [],
        "properties": ["ss"],
        "sizes": [[2, 2]],
    }
    data.update(overrides)
    return data


def _synthetic_run(spec, outcomes):
    """A CampaignRun with hand-written journal entries: ``outcomes``
    maps cell id -> ("pass"|"fail"|"error", counterexample_or_None);
    cells absent from the map stay missing."""
    entries = {}
    for cell in spec.campaign.cells:
        if cell["id"] not in outcomes:
            continue
        status, word = outcomes[cell["id"]]
        entries[cell["id"]] = {
            "type": "cell",
            "id": cell["id"],
            "status": status,
            "result": (
                {"holds": False, "counterexample": word}
                if status == "fail"
                else {"holds": True, "counterexample": None}
                if status == "pass"
                else None
            ),
            "error": "boom" if status == "error" else None,
            "attempts": 1,
            "faults": [],
        }
    return CampaignRun(spec.campaign, entries)


class TestSpec:
    def test_default_hunt_is_the_full_roster(self):
        spec = default_hunt_spec()
        roster = default_mutants()
        assert spec.tms == roster + ["tl2", "norec"]
        assert spec.properties == ["ss", "op"]
        assert spec.sizes == [[2, 2]]
        assert len(spec.campaign.cells) == 2 * (len(roster) + 2)
        # seeded bugs and true negatives both present
        assert spec.expectations["tl2/split-validation"] is True
        assert spec.expectations["norec"] is False

    def test_hunt_policy_defaults_reach_the_cells(self):
        spec = parse_hunt_spec(_tiny())
        for cell in spec.campaign.cells:
            assert cell["timeout_s"] == HUNT_POLICY_DEFAULTS["timeout_s"]
            assert cell["retry_seed"] == HUNT_POLICY_DEFAULTS["retry_seed"]

    def test_globs_expand_over_the_roster(self):
        spec = parse_hunt_spec(_tiny(mutants=["2pl/*"]))
        expected = [m for m in default_mutants() if m.startswith("2pl/")]
        assert [tm for tm in spec.tms if "/" in tm] == expected

    def test_exact_off_roster_replicates_pass_through(self):
        spec = parse_hunt_spec(
            _tiny(mutants=["tl2/skip-version-bump@seed9"])
        )
        assert "tl2/skip-version-bump@seed9" in spec.tms

    def test_mutant_lists_deduplicate_in_order(self):
        spec = parse_hunt_spec(
            _tiny(
                mutants=[
                    "tl2/drop-rvalidate",
                    "tl2/drop-*",
                    "tl2/drop-chklock",
                ]
            )
        )
        assert [tm for tm in spec.tms if "/" in tm] == [
            "tl2/drop-rvalidate",
            "tl2/drop-chklock",
        ]

    def test_digest_is_the_campaign_digest(self):
        a = parse_hunt_spec(_tiny())
        b = parse_hunt_spec(_tiny())
        c = parse_hunt_spec(_tiny(properties=["op"]))
        assert a.digest == b.digest
        assert a.digest != c.digest

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda d: d.__setitem__("bogus", 1), "unknown key"),
            (lambda d: d.__setitem__("mutants", []), "non-empty list"),
            (
                lambda d: d.__setitem__("mutants", ["dstm/no-such-*"]),
                "matches nothing",
            ),
            (
                # a malformed seed suffix is not an id, so it degrades
                # to a glob — which then matches nothing
                lambda d: d.__setitem__("mutants", ["tl2/drop@seedx"]),
                "matches nothing",
            ),
            (
                lambda d: d.__setitem__(
                    "controls", ["tl2/drop-rvalidate"]
                ),
                "plain TM names",
            ),
            (
                lambda d: d.__setitem__("defaults", {"timeout_s": -1}),
                "timeout_s",
            ),
            (
                lambda d: d.__setitem__("defaults", {"retry_seed": -1}),
                "retry_seed",
            ),
            # policy keys of the removed process-sharding layer
            (
                lambda d: d.__setitem__("defaults", {"jobs": 2}),
                "unknown key 'jobs'",
            ),
            (
                lambda d: d.__setitem__(
                    "defaults", {"shard_product": False}
                ),
                "unknown key 'shard_product'",
            ),
            (
                lambda d: d.__setitem__("defaults", {"chunk_size": 4}),
                "unknown key 'chunk_size'",
            ),
        ],
    )
    def test_invalid_hunt_specs_rejected(self, mutate, match):
        data = _tiny()
        mutate(data)
        with pytest.raises(CampaignSpecError, match=match):
            parse_hunt_spec(data)

    def test_unknown_control_rejected(self):
        with pytest.raises(CampaignSpecError, match="unknown control TM"):
            parse_hunt_spec(_tiny(controls=["nope"]))

    def test_load_hunt_spec_bad_json(self, tmp_path):
        path = tmp_path / "hunt.json"
        path.write_text("{not json")
        with pytest.raises(CampaignSpecError, match="not valid JSON"):
            load_hunt_spec(str(path))

    def test_tm_expectation(self):
        assert tm_expectation("modtl2") is True
        assert tm_expectation("tl2") is False
        assert tm_expectation("2pl/no-rlock") is True
        with pytest.raises(CampaignSpecError, match="unknown"):
            tm_expectation("nope")

    def test_expand_cell_accepts_mutant_ids(self):
        """The serve daemon's request validator — mutant acceptance here
        is what makes hunts daemon-runnable."""
        cell = expand_cell(
            {"tm": "tl2/drop-rvalidate", "property": "ss"}
        )
        assert cell["id"] == "tl2/drop-rvalidate/ss/2x2"
        with pytest.raises(CampaignSpecError, match="unknown TM"):
            expand_cell({"tm": "tl2/no-such-op", "property": "ss"})


class TestVerdicts:
    def test_caught_and_correct_rank_and_exit(self):
        spec = parse_hunt_spec(_tiny())
        run = _synthetic_run(
            spec,
            {
                "tl2/drop-rvalidate/ss/2x2": (
                    "fail", "(r,1)1, (w,1)1, (w,1)2, c2, c1",
                ),
                "tl2/shuffle-lock-order/ss/2x2": ("pass", None),
            },
        )
        report = build_hunt_report(spec, run)
        assert report["summary"] == {
            "caught": 1, "escaped": 0, "false-kill": 0,
            "correct": 1, "incomplete": 0,
        }
        caught = report["mutants"][0]
        assert caught["tm"] == "tl2/drop-rvalidate"
        assert caught["verdict"] == "caught"
        assert caught["counterexample_len"] == 5
        assert hunt_exit_code(report) == 1

    def test_escaped_is_a_hard_failure(self):
        spec = parse_hunt_spec(_tiny())
        run = _synthetic_run(
            spec,
            {
                "tl2/drop-rvalidate/ss/2x2": ("pass", None),
                "tl2/shuffle-lock-order/ss/2x2": ("pass", None),
            },
        )
        report = build_hunt_report(spec, run)
        assert report["mutants"][0]["verdict"] == "escaped"
        assert hunt_exit_code(report) == 3
        assert "**ESCAPED**" in render_hunt_markdown(report)

    def test_false_kill_is_a_hard_failure(self):
        spec = parse_hunt_spec(_tiny())
        run = _synthetic_run(
            spec,
            {
                "tl2/drop-rvalidate/ss/2x2": ("fail", "(w,1)1, c1"),
                "tl2/shuffle-lock-order/ss/2x2": ("fail", "(w,1)1, c1"),
            },
        )
        report = build_hunt_report(spec, run)
        assert report["mutants"][0]["verdict"] == "false-kill"
        assert hunt_exit_code(report) == 3
        assert "**FALSE KILL**" in render_hunt_markdown(report)

    def test_missing_and_errored_cells_mean_incomplete(self):
        spec = parse_hunt_spec(_tiny())
        run = _synthetic_run(
            spec,
            {"tl2/shuffle-lock-order/ss/2x2": ("error", None)},
        )
        report = build_hunt_report(spec, run)
        verdicts = {m["tm"]: m["verdict"] for m in report["mutants"]}
        assert verdicts == {
            "tl2/drop-rvalidate": "incomplete",
            "tl2/shuffle-lock-order": "incomplete",
        }
        assert hunt_exit_code(report) == 3
        assert "triage" in render_hunt_markdown(report)

    def test_all_quiet_true_negatives_exit_zero(self):
        spec = parse_hunt_spec(_tiny(mutants=["tl2/shuffle-lock-order"]))
        run = _synthetic_run(
            spec, {"tl2/shuffle-lock-order/ss/2x2": ("pass", None)}
        )
        report = build_hunt_report(spec, run)
        assert hunt_exit_code(report) == 0

    def test_minimal_counterexample_across_cells(self):
        spec = parse_hunt_spec(
            _tiny(
                mutants=["tl2/drop-rvalidate"], properties=["ss", "op"]
            )
        )
        run = _synthetic_run(
            spec,
            {
                "tl2/drop-rvalidate/ss/2x2": (
                    "fail", "(r,1)1, (w,1)1, (w,1)2, c2, c1",
                ),
                "tl2/drop-rvalidate/op/2x2": (
                    "fail", "(r,1)1, (w,1)2, c2, (r,1)1",
                ),
            },
        )
        (mutant,) = build_hunt_report(spec, run)["mutants"]
        assert mutant["counterexample_cell"] == "tl2/drop-rvalidate/op/2x2"
        assert mutant["counterexample_len"] == 4
        assert len(mutant["killed_by"]) == 2


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def small_hunt(self):
        return parse_hunt_spec(
            {
                "name": "smoke",
                "mutants": ["2pl/no-rlock"],
                "controls": ["norec"],
                "properties": ["ss"],
                "sizes": [[2, 2]],
            }
        )

    def test_real_hunt_catches_the_seeded_bug(self, small_hunt, tmp_path):
        journal = str(tmp_path / "hunt.jsonl")
        run = run_hunt(small_hunt, journal)
        assert run.complete
        report = build_hunt_report(small_hunt, run)
        assert hunt_exit_code(report) == 1
        verdicts = {m["tm"]: m["verdict"] for m in report["mutants"]}
        assert verdicts == {"2pl/no-rlock": "caught", "norec": "correct"}
        caught = report["mutants"][0]
        assert caught["counterexample"]
        assert caught["counterexample_len"] == 5

    def test_interrupted_hunt_resumes_byte_identically(
        self, small_hunt, tmp_path
    ):
        straight = build_hunt_report(
            small_hunt,
            run_hunt(small_hunt, str(tmp_path / "a.jsonl")),
        )
        journal = str(tmp_path / "b.jsonl")
        partial = run_hunt(small_hunt, journal, limit=1)
        assert not partial.complete
        resumed = build_hunt_report(
            small_hunt, run_hunt(small_hunt, journal)
        )
        assert render_hunt_json(resumed) == render_hunt_json(straight)
        assert render_hunt_markdown(resumed) == render_hunt_markdown(
            straight
        )

    def test_journal_digest_mismatch_refuses_resume(
        self, small_hunt, tmp_path
    ):
        journal = str(tmp_path / "c.jsonl")
        run_hunt(small_hunt, journal, limit=1)
        other = parse_hunt_spec(
            {"name": "smoke", "mutants": ["2pl/no-rlock"],
             "controls": [], "properties": ["ss"]}
        )
        with pytest.raises(CampaignSpecError, match="digest mismatch"):
            run_hunt(other, journal)
