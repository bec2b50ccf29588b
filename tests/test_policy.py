"""Unit tests for the repro.policy hook API, registry and zoo
(docs/policies.md).

The golden byte-equivalence of the built-in modes lives in
``test_policy_golden.py``; this file covers the hook semantics, the
read-only PolicyView sandbox, the ``NAME[:k=v,...]`` registry grammar,
and the zoo's deterministic managers.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.api as api
from repro.config import tiny
from repro.errors import ConfigError, ReproError
from repro.experiments.harness import ExperimentRunner
from repro.experiments.parse import parse_policy
from repro.experiments.policies import POLICIES, Policy
from repro.experiments.scenarios import fresh
from repro.mem.frag import Fragmenter
from repro.mem.thp import ThpMode, ThpPolicy
from repro.mem.vmm import VirtualMemoryManager
from repro.policy import (
    BASE_PAGES,
    BasePagePolicy,
    BuiltinThpHook,
    PageDecision,
    PagePolicy,
    PolicyView,
    PromotionCandidate,
)
from repro.policy.registry import (
    canonical_spec,
    get_policy,
    parse_policy_spec,
    register_policy,
    registered_policies,
)
from repro.policy.tournament import run_tournament
from repro.policy.zoo import AdvisorHook, AutotunerHook, SampledHotnessManager
from repro.runstate.serialize import spec_fingerprint


def make_vmm(node, cfg, policy=None):
    return VirtualMemoryManager(node, policy or ThpPolicy.never(), cfg)


# ----------------------------------------------------------------------
# PolicyView — the read-only sandbox
# ----------------------------------------------------------------------


class TestPolicyView:
    def test_rejects_attribute_writes(self, node, tiny_cfg):
        view = make_vmm(node, tiny_cfg).policy_view
        with pytest.raises(AttributeError, match="read-only"):
            view.cached = 1
        with pytest.raises(AttributeError, match="read-only"):
            view.free_frames = 0

    def test_rejects_attribute_deletes(self, node, tiny_cfg):
        view = make_vmm(node, tiny_cfg).policy_view
        with pytest.raises(AttributeError, match="read-only"):
            del view.free_frames

    def test_accessors_return_scalars_and_copies(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("prop", 2 * tiny_cfg.pages.huge_page_size)
        vmm.touch(vma)
        view = vmm.policy_view
        assert view.free_frames == node.free_frame_count
        assert view.vma_names() == ("prop",)
        assert view.resident_pages("prop") == vma.frame.size
        assert 0.0 <= view.huge_fraction("prop") <= 1.0
        snapshot = view.ledger_snapshot()
        snapshot.clear()  # a copy: clearing must not touch the ledger
        assert view.ledger_snapshot() != {} or snapshot == {}

    def test_region_metrics_match_node(self, node, tiny_cfg):
        view = make_vmm(node, tiny_cfg).policy_view
        fragmenter = Fragmenter(node)
        for level in (None, 0.5):
            if level is not None:
                fragmenter.fragment(level)
            assert view.pristine_regions == node.pristine_region_count()
            assert view.fragmentation_level == node.fragmentation_level()
        assert view.fragmentation_level > 0.0


# ----------------------------------------------------------------------
# Hook semantics at the VMM decision points
# ----------------------------------------------------------------------


class _DenyAll(BasePagePolicy):
    """Base pages everywhere, never promote, never demote."""

    name = "deny-all"


class _PromoteReversed(BasePagePolicy):
    """Promote every candidate, in reverse scan order."""

    name = "promote-reversed"

    def on_khugepaged_scan(self, candidates, view):
        return tuple(reversed(candidates))


class TestCustomHooks:
    def _touch_all(self, vmm, vma):
        vmm.touch(vma)

    def test_deny_all_faults_base_pages(self, node, tiny_cfg):
        thp = ThpPolicy(mode=ThpMode.ALWAYS, hooks=_DenyAll())
        vmm = make_vmm(node, tiny_cfg, thp)
        vma = vmm.mmap("prop", 2 * tiny_cfg.pages.huge_page_size)
        self._touch_all(vmm, vma)
        assert (vma.huge_region < 0).all()

    def test_deny_all_blocks_khugepaged(self, node, tiny_cfg):
        thp = ThpPolicy(
            mode=ThpMode.ALWAYS, fault_alloc=False, hooks=_DenyAll()
        )
        vmm = make_vmm(node, tiny_cfg, thp)
        vma = vmm.mmap("prop", 2 * tiny_cfg.pages.huge_page_size)
        self._touch_all(vmm, vma)
        assert vmm.khugepaged_pass() == 0
        assert (vma.huge_region < 0).all()

    def test_custom_selection_controls_promotion_order(
        self, node, tiny_cfg
    ):
        thp = ThpPolicy(
            mode=ThpMode.ALWAYS,
            fault_alloc=False,
            hooks=_PromoteReversed(),
        )
        vmm = make_vmm(node, tiny_cfg, thp)
        vma = vmm.mmap("prop", 2 * tiny_cfg.pages.huge_page_size)
        self._touch_all(vmm, vma)
        assert vmm.khugepaged_pass() == 2
        assert (vma.huge_region >= 0).all()

    def test_builtin_hook_matches_knob_semantics(self):
        grid = [
            (advised, full, partial)
            for advised in (False, True)
            for full in (False, True)
            for partial in (False, True)
        ]
        from repro.policy.hooks import FaultContext

        for mode in (ThpMode.NEVER, ThpMode.ALWAYS, ThpMode.MADVISE):
            thp = ThpPolicy(mode=mode)
            hook = BuiltinThpHook(thp)
            for advised, full, partial in grid:
                ctx = FaultContext(
                    vma_name="a",
                    chunk=0,
                    advised=advised,
                    chunk_full=full,
                    partially_mapped=partial,
                )
                expected = (
                    thp.fault_alloc
                    and full
                    and thp.wants_huge(advised)
                    and not partial
                )
                decision = hook.on_fault(ctx, None)
                assert decision.huge == expected, (mode, ctx)
                candidate = PromotionCandidate(
                    vma_index=0, vma_name="a", chunk=0, advised=advised
                )
                kept = hook.on_khugepaged_scan((candidate,), None)
                assert bool(kept) == thp.wants_huge(advised)

    def test_zoo_hooks_satisfy_the_protocol(self):
        assert isinstance(AdvisorHook(), PagePolicy)
        assert isinstance(AutotunerHook(), PagePolicy)
        assert isinstance(BuiltinThpHook(ThpPolicy.always()), PagePolicy)
        assert isinstance(BasePagePolicy(), PagePolicy)

    def test_autotuner_hook_keeps_kernel_passive(self):
        hook = AutotunerHook()
        candidate = PromotionCandidate(
            vma_index=0, vma_name="a", chunk=0, advised=True
        )
        assert hook.on_khugepaged_scan((candidate,), None) == ()
        from repro.policy.hooks import FaultContext

        ctx = FaultContext(
            vma_name="a",
            chunk=0,
            advised=True,
            chunk_full=True,
            partially_mapped=False,
        )
        assert hook.on_fault(ctx, None) is BASE_PAGES


# ----------------------------------------------------------------------
# Registry: the NAME[:k=v,...] grammar
# ----------------------------------------------------------------------


class TestRegistry:
    def test_parse_spec_types_values(self):
        name, params = parse_policy_spec(
            "ingens:threshold=0.8,per_pass=4,flag=true,opt=none"
        )
        assert name == "ingens"
        assert params == {
            "threshold": 0.8,
            "per_pass": 4,
            "flag": True,
            "opt": None,
        }

    def test_parse_spec_rejects_duplicates_and_malformed(self):
        with pytest.raises(ReproError):
            parse_policy_spec("ingens:a=1,a=2")
        with pytest.raises(ReproError):
            parse_policy_spec("ingens:noequals")
        with pytest.raises(ReproError):
            parse_policy_spec("")

    def test_canonical_spec_sorts_keys(self):
        assert (
            canonical_spec("z", {"b": 2, "a": 1}) == "z:a=1,b=2"
        )

    def test_bare_names_keep_builder_identity(self):
        # Fixed policies and their aliases materialize the table entries
        # themselves, so they fingerprint identically.
        assert get_policy("never") is POLICIES["base4k"]
        assert get_policy("greedy-always") is POLICIES["thp"]
        assert api.get_policy("thp") is POLICIES["thp"]
        assert set(PINNED_FINGERPRINTS) <= set(registered_policies())
        assert get_policy("ingens").name == "ingens(u=90%)"

    def test_params_fold_into_the_name(self):
        policy = get_policy("ingens:threshold=0.8")
        assert policy.name == "ingens:threshold=0.8"
        assert policy.plan.label == "ingens(u=80%)"

    def test_unknown_name_lists_registry(self):
        with pytest.raises(ReproError, match="ingens"):
            get_policy("no-such-policy")

    def test_unknown_param_is_a_repro_error(self):
        with pytest.raises(ReproError, match="param"):
            get_policy("ingens:bogus_knob=1")

    def test_dataset_aware_entry_requires_dataset(self):
        with pytest.raises(ReproError, match="dataset"):
            get_policy("advisor")

    def test_advisor_materializes_with_dataset(self):
        policy = get_policy(
            "advisor", dataset="test-small", config=tiny()
        )
        assert isinstance(policy, Policy)
        thp = policy.make_thp()
        assert isinstance(thp.hooks, AdvisorHook)

    def test_register_is_idempotent_for_same_builder(self):
        entry = registered_policies()["ingens"]
        register_policy("ingens", entry.builder, summary=entry.summary)

    def test_register_conflict_needs_replace(self):
        def other_builder():  # pragma: no cover - never called
            raise AssertionError

        with pytest.raises(ReproError, match="replace"):
            register_policy("ingens", other_builder)

    def test_register_rejects_grammar_chars_in_name(self):
        for bad in ("a:b", "a,b", "a=b", "a b"):
            with pytest.raises(ReproError):
                register_policy(bad, lambda: None)

    def test_parse_policy_falls_back_to_registry(self):
        assert parse_policy("base4k") is POLICIES["base4k"]
        assert parse_policy("khugepaged").name == "khugepaged"
        assert (
            parse_policy("ingens:threshold=0.8").name
            == "ingens:threshold=0.8"
        )
        with pytest.raises(ReproError, match="khugepaged"):
            parse_policy("definitely-not-registered")

    def test_parameterizations_fingerprint_distinctly(self):
        def fingerprint(spec):
            return spec_fingerprint(
                "bfs",
                "test-small",
                get_policy(spec),
                fresh(),
                3,
                "tiny",
                None,
                2,
                None,
            )

        prints = {
            spec: fingerprint(spec)
            for spec in (
                "ingens",
                "ingens:threshold=0.8",
                "ingens:threshold=0.7",
                "hawkeye",
                "hawkeye:per_pass=4",
            )
        }
        assert len(set(prints.values())) == len(prints)

    @pytest.mark.parametrize("spec", ["selective:-0.2", "selective:nan"])
    def test_malformed_selective_fraction_rejected(self, spec):
        with pytest.raises(ConfigError, match=r"\[0, 1\]"):
            parse_policy(spec)

    def test_selective_zero_is_the_no_advice_point(self):
        policy = parse_policy("selective:0")
        assert policy.name == "selective(s=0%,dbg)"
        assert policy.plan.advise_fractions == {}


# ----------------------------------------------------------------------
# One namespace: every entry point resolves every name the same way
# ----------------------------------------------------------------------

NAMESPACE_DATASET = "test-small"

PINNED_FINGERPRINTS = {
    # bfs / test-small / fresh on the tiny profile, as journaled before
    # the fixed table moved into the registry.
    "base4k": "dc44a338b8b0bcd2",
    "thp": "6acfb368e3aa4786",
    "thp-opt": "74d323d7118602f3",
    "madv-vertex": "5b3f1a890885ed52",
    "madv-edge": "93c37957f5315a31",
    "madv-values": "fcf4ceed05e608a2",
    "madv-property": "97dd6821788032cf",
    "dbg": "5d9202157035decc",
    "dbg+thp": "67c24cadcfcbe64e",
    "never": "dc44a338b8b0bcd2",
    "greedy-always": "6acfb368e3aa4786",
    "madvise": "97dd6821788032cf",
}


@pytest.fixture(scope="module")
def namespace_runner():
    return ExperimentRunner(config=tiny(), datasets=(NAMESPACE_DATASET,))


class TestOneNamespace:
    @pytest.mark.parametrize("name", sorted(registered_policies()))
    def test_every_entry_point_agrees(
        self, name, namespace_runner, monkeypatch
    ):
        runner = namespace_runner
        context = {"dataset": NAMESPACE_DATASET, "config": runner.config}

        def fingerprint(policy):
            return runner.cell_spec(
                "bfs", NAMESPACE_DATASET, policy, fresh()
            )

        recorded = []
        run_cells = runner.run_cells

        def recording(cells):
            recorded.extend(cells)
            return run_cells(cells)

        monkeypatch.setattr(runner, "run_cells", recording)
        run_tournament(
            runner,
            policies=(name,),
            scenarios=("fresh",),
            datasets=(NAMESPACE_DATASET,),
        )
        (*_, contender, _scenario) = recorded[-1]
        prints = {
            fingerprint(parse_policy(name, **context)),
            fingerprint(api.get_policy(name, **context)),
            fingerprint(contender),
        }
        assert len(prints) == 1
        if name in PINNED_FINGERPRINTS:
            assert prints == {PINNED_FINGERPRINTS[name]}


# ----------------------------------------------------------------------
# SampledHotnessManager — determinism of the sampled-bit signal
# ----------------------------------------------------------------------


class _FakeProfiler:
    def __init__(self, counts: np.ndarray) -> None:
        self._counts = counts

    def page_counts(self, vma) -> np.ndarray:
        return self._counts


class TestSampledHotnessManager:
    def _manager(self, cfg, counts, stride=2):
        manager = SampledHotnessManager(sample_stride=stride)
        manager.profiler = _FakeProfiler(counts)
        manager.config = cfg
        return manager

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            SampledHotnessManager(sample_stride=0)

    def test_hot_bits_only_see_sampled_pages(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("prop", 2 * tiny_cfg.pages.huge_page_size)
        pages = vma.frame.size
        counts = np.zeros(pages, dtype=np.int64)
        counts[1] = 100  # touched, but off the sampling stride
        manager = self._manager(tiny_cfg, counts, stride=2)
        assert manager._chunk_hot_bits(vma).sum() == 0
        counts[2] = 1  # touched on the stride
        assert manager._chunk_hot_bits(vma).sum() == 1

    def test_signal_is_bit_level_not_count_level(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("prop", 2 * tiny_cfg.pages.huge_page_size)
        pages = vma.frame.size
        hot = np.zeros(pages, dtype=np.int64)
        hot[0] = 10_000  # one scorching page
        spread = np.zeros(pages, dtype=np.int64)
        spread[: pages // 2 : 2] = 1  # many barely-touched pages
        one_bit = self._manager(tiny_cfg, hot, stride=2)
        many_bits = self._manager(tiny_cfg, spread, stride=2)
        assert one_bit._chunk_hot_bits(vma).max() == 1
        assert many_bits._chunk_hot_bits(vma).max() > 1

    def test_deterministic_across_instances(self, node, tiny_cfg):
        vmm = make_vmm(node, tiny_cfg)
        vma = vmm.mmap("prop", 4 * tiny_cfg.pages.huge_page_size)
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 5, size=vma.frame.size)
        a = self._manager(tiny_cfg, counts)._chunk_hot_bits(vma)
        b = self._manager(tiny_cfg, counts)._chunk_hot_bits(vma)
        assert np.array_equal(a, b)

    def test_end_to_end_runs_are_identical(self):
        def run_once():
            runner = ExperimentRunner(
                config=tiny(), datasets=("test-small",)
            )
            run = runner.run_cell(
                "bfs", "test-small", get_policy("hawkeye-bits"), fresh()
            )
            return (run.total_cycles, run.manager_promotions)

        assert run_once() == run_once()
