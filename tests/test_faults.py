"""Fault injection and the resilience layer it exercises.

Covers the deterministic fault harness (``repro.core.faults``), the
machine yield model, embedding retry diagnostics, the runner's
retry/fallback/chain-escalation policy, cache disk-failure handling,
and the ``--inject-fault`` CLI flag.  The slow seed-matrix tests at the
bottom are deselected by default (``-m "not slow"`` in pyproject) and
run in CI's fault-injection job across several ``REPRO_FAULT_SEED``
values.
"""

import logging
import os
import pickle

import networkx as nx
import numpy as np
import pytest

from repro.core.cache import ArtifactCache, EmbeddingCache
from repro.core.cli import main
from repro.core.compiler import VerilogAnnealerCompiler
from repro.core.faults import (
    FaultInjector,
    FaultSpec,
    TransientSolverError,
    break_chains,
    parse_fault_spec,
    spec_fingerprint,
)
from repro.hardware.chimera import chimera_graph, coupler_dropout
from repro.hardware.embedding import (
    Embedding,
    EmbeddingError,
    embed_ising,
    find_embedding,
    unembed_sampleset,
)
from repro.ising.model import IsingModel
from repro.qmasm import runner as runner_module
from repro.qmasm.runner import QmasmRunner, RetryPolicy
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.sampleset import SampleSet

from tests.conftest import (
    AUSTRALIA_ADJACENT,
    AUSTRALIA_REGIONS,
    LISTING_7_AUSTRALIA,
)

AND_PROGRAM = "!include <stdcell>\n!use_macro AND g\n"


def _stage(stats, name):
    return stats[name]


def _small_machine(faults=None, cells=4, seed=0):
    return DWaveSimulator(
        properties=MachineProperties(cells=cells, dropout_fraction=0.0),
        seed=seed,
        faults=faults,
    )


# ----------------------------------------------------------------------
# FaultSpec and parse_fault_spec
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_percentages_and_fractions(self):
        spec = parse_fault_spec("dead_qubits=5%,fail_first=2,break_chains=0.3,seed=7")
        assert spec.dead_qubit_fraction == pytest.approx(0.05)
        assert spec.fail_first_samples == 2
        assert spec.chain_break_rate == pytest.approx(0.3)
        assert spec.seed == 7

    def test_parse_all_keys(self):
        spec = parse_fault_spec(
            "dead_qubits=1%, dead_couplers=2%, fail_first=1, "
            "fail_rate=10%, drop_rate=0.25, break_chains=50%, seed=3"
        )
        assert spec.dead_coupler_fraction == pytest.approx(0.02)
        assert spec.sample_failure_rate == pytest.approx(0.10)
        assert spec.programming_drop_rate == pytest.approx(0.25)

    def test_parse_composes_with_base(self):
        base = parse_fault_spec("dead_qubits=5%,seed=7")
        spec = parse_fault_spec("fail_first=2", base=base)
        assert spec.dead_qubit_fraction == pytest.approx(0.05)
        assert spec.fail_first_samples == 2
        later = parse_fault_spec("dead_qubits=1%", base=spec)
        assert later.dead_qubit_fraction == pytest.approx(0.01)

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            parse_fault_spec("kill_everything=1")

    def test_parse_rejects_malformed_clause(self):
        with pytest.raises(ValueError, match="expected key=value"):
            parse_fault_spec("dead_qubits")
        with pytest.raises(ValueError, match="bad value"):
            parse_fault_spec("fail_first=two")
        with pytest.raises(ValueError, match="bad value"):
            parse_fault_spec("dead_qubits=lots")

    def test_spec_validates_ranges(self):
        with pytest.raises(ValueError):
            FaultSpec(dead_qubit_fraction=1.5)
        with pytest.raises(ValueError):
            FaultSpec(sample_failure_rate=-0.1)
        with pytest.raises(ValueError):
            FaultSpec(fail_first_samples=-1)

    def test_spec_is_hashable_with_list_inputs(self):
        spec = FaultSpec(dead_qubits=[1, 2], dead_couplers=[(0, 4)])
        assert spec.dead_qubits == (1, 2)
        assert spec.dead_couplers == ((0, 4),)
        hash(spec)

    def test_fault_classification(self):
        assert FaultSpec(dead_qubit_fraction=0.1).has_yield_faults
        assert not FaultSpec(dead_qubit_fraction=0.1).has_transient_faults
        assert FaultSpec(fail_first_samples=1).has_transient_faults
        assert not FaultSpec(fail_first_samples=1).has_yield_faults
        assert not FaultSpec().has_yield_faults

    def test_fingerprint_distinguishes_specs(self):
        a = spec_fingerprint(FaultSpec(dead_qubit_fraction=0.05, seed=7))
        b = spec_fingerprint(FaultSpec(dead_qubit_fraction=0.05, seed=8))
        assert a != b
        assert spec_fingerprint(None) == "none"


# ----------------------------------------------------------------------
# Fleet-level machine faults: parsing, validation, fingerprinting
# ----------------------------------------------------------------------
class TestMachineFaultClauses:
    def test_parse_machine_entries_with_params(self):
        spec = parse_fault_spec(
            "machine_crash=1:3+2,machine_straggler=2:8,machine_flaky=0:30%"
        )
        assert spec.machine_crashes == ((1, 3), (2, 2))
        assert spec.machine_stragglers == ((2, 8.0),)
        assert spec.machine_flaky == ((0, pytest.approx(0.30)),)

    def test_parse_machine_defaults(self):
        # Bare indices take the documented defaults: crash on the 2nd
        # dispatch, run 4x slower, fail one dispatch in four.
        spec = parse_fault_spec(
            "machine_crash=1,machine_straggler=2,machine_flaky=3"
        )
        assert spec.machine_crashes == ((1, 2),)
        assert spec.machine_stragglers == ((2, 4.0),)
        assert spec.machine_flaky == ((3, 0.25),)

    def test_parse_machine_clause_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad machine index"):
            parse_fault_spec("machine_crash=one")
        with pytest.raises(ValueError, match="empty machine list"):
            parse_fault_spec("machine_crash=")
        with pytest.raises(ValueError, match="bad value"):
            parse_fault_spec("machine_flaky=0:lots")

    def test_machine_fields_validate_ranges(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec(machine_crashes=((0, 0),))
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec(machine_crashes=((-1, 2),))
        with pytest.raises(ValueError, match="factor must be >= 1"):
            FaultSpec(machine_stragglers=((0, 0.5),))
        with pytest.raises(ValueError, match="rate must be in"):
            FaultSpec(machine_flaky=((0, 1.5),))

    def test_machine_fault_classification(self):
        spec = FaultSpec(machine_crashes=((1, 2),))
        assert spec.has_machine_faults
        assert not spec.has_yield_faults
        assert not spec.has_transient_faults
        assert not FaultSpec().has_machine_faults

    def test_fingerprint_covers_machine_fields(self):
        # Regression: checkpoint/cache keys must change when any
        # machine-level fault field changes, and the canonical string
        # must name each field so future fields cannot be missed
        # silently.
        clean = spec_fingerprint(FaultSpec())
        crash = spec_fingerprint(FaultSpec(machine_crashes=((1, 2),)))
        straggle = spec_fingerprint(FaultSpec(machine_stragglers=((1, 8.0),)))
        flaky = spec_fingerprint(FaultSpec(machine_flaky=((1, 0.25),)))
        assert len({clean, crash, straggle, flaky}) == 4
        for name in ("machine_crashes", "machine_stragglers", "machine_flaky"):
            assert name in clean
        assert "machine_crashes=((1, 2),)" in crash


# ----------------------------------------------------------------------
# Yield model: the working graph reflects the damage
# ----------------------------------------------------------------------
class TestYieldModel:
    def test_seeded_dead_qubits_are_deterministic(self):
        spec = FaultSpec(dead_qubit_fraction=0.1, seed=7)
        first = _small_machine(faults=spec)
        second = _small_machine(faults=spec)
        pristine = _small_machine()
        assert set(first.working_graph) == set(second.working_graph)
        expected = round(0.1 * pristine.num_qubits)
        assert first.num_qubits == pristine.num_qubits - expected

    def test_different_seed_kills_different_qubits(self):
        first = _small_machine(faults=FaultSpec(dead_qubit_fraction=0.1, seed=7))
        second = _small_machine(faults=FaultSpec(dead_qubit_fraction=0.1, seed=8))
        assert set(first.working_graph) != set(second.working_graph)

    def test_explicit_dead_qubits_and_couplers(self):
        machine = _small_machine(
            faults=FaultSpec(dead_qubits=(0, 5), dead_couplers=((1, 4),))
        )
        assert 0 not in machine.working_graph
        assert 5 not in machine.working_graph
        assert not machine.working_graph.has_edge(1, 4)
        # Indices beyond the graph are ignored, not an error.
        _small_machine(faults=FaultSpec(dead_qubits=(10**6,)))

    def test_validate_problem_rejects_dead_qubit(self):
        machine = _small_machine(faults=FaultSpec(dead_qubits=(0,)))
        model = IsingModel()
        model.add_variable(0, 1.0)
        with pytest.raises(ValueError, match="not in the working graph"):
            machine.validate_problem(model)

    def test_validate_problem_rejects_dead_coupler(self):
        machine = _small_machine(faults=FaultSpec(dead_couplers=((0, 4),)))
        model = IsingModel()
        model.add_interaction(0, 4, 1.0)
        with pytest.raises(ValueError, match="no coupler"):
            machine.validate_problem(model)

    def test_degrade_returns_a_copy(self):
        graph = chimera_graph(2)
        before = graph.number_of_nodes()
        injector = FaultInjector(FaultSpec(dead_qubit_fraction=0.2, seed=1))
        damaged = injector.degrade(graph)
        assert graph.number_of_nodes() == before
        assert damaged.number_of_nodes() < before

    def test_machine_properties_dead_lists(self):
        machine = DWaveSimulator(
            MachineProperties(
                cells=2,
                dropout_fraction=0.0,
                coupler_dropout_fraction=0.1,
                dead_qubits=(3,),
                dead_couplers=((0, 4),),
            )
        )
        pristine = chimera_graph(2)
        assert 3 not in machine.working_graph
        assert not machine.working_graph.has_edge(0, 4)
        expected_drop = round(0.1 * pristine.number_of_edges())
        # 0.1 of couplers plus the explicit one (unless it was already hit).
        assert machine.working_graph.number_of_edges() <= (
            pristine.number_of_edges() - expected_drop
        )

    def test_coupler_dropout_keeps_qubits(self):
        graph = chimera_graph(2)
        out = coupler_dropout(graph, num_couplers=5, seed=0)
        assert out.number_of_nodes() == graph.number_of_nodes()
        assert out.number_of_edges() == graph.number_of_edges() - 5
        with pytest.raises(ValueError):
            coupler_dropout(graph, num_couplers=graph.number_of_edges() + 1)


# ----------------------------------------------------------------------
# Transient faults: sample calls fail, reads corrupt
# ----------------------------------------------------------------------
class TestTransientFaults:
    def _one_qubit_model(self):
        model = IsingModel()
        model.add_variable(0, 1.0)
        return model

    def test_fail_first_samples(self):
        machine = _small_machine(faults=FaultSpec(fail_first_samples=2), cells=2)
        model = self._one_qubit_model()
        for expected_call in (1, 2):
            with pytest.raises(TransientSolverError) as info:
                machine.sample_ising(model, num_reads=5)
            assert info.value.kind == "injected"
            assert machine.faults.sample_calls == expected_call
        result = machine.sample_ising(model, num_reads=5)
        assert len(result)
        assert machine.faults.counters() == {
            "sample_calls": 3,
            "transient_failures": 2,
            "reads_corrupted": 0,
            "logical_reads_corrupted": 0,
        }

    def test_failure_rates_fire(self):
        machine = _small_machine(
            faults=FaultSpec(sample_failure_rate=1.0), cells=2
        )
        with pytest.raises(TransientSolverError) as info:
            machine.sample_ising(self._one_qubit_model(), num_reads=2)
        assert info.value.kind == "sample_failure"

        machine = _small_machine(
            faults=FaultSpec(programming_drop_rate=1.0), cells=2
        )
        with pytest.raises(TransientSolverError) as info:
            machine.sample_ising(self._one_qubit_model(), num_reads=2)
        assert info.value.kind == "programming_drop"

    def test_validation_still_precedes_transient_faults(self):
        # SAPI rejects malformed problems client-side; injected failures
        # model server-side behavior and must not mask a ValueError.
        machine = _small_machine(faults=FaultSpec(fail_first_samples=1), cells=2)
        bad = IsingModel()
        bad.add_variable(10**6, 1.0)
        with pytest.raises(ValueError):
            machine.sample_ising(bad, num_reads=2)
        assert machine.faults.sample_calls == 0

    def test_corrupt_records_is_deterministic(self):
        records = np.ones((50, 4), dtype=np.int8)
        first = FaultInjector(FaultSpec(chain_break_rate=0.5, seed=3))
        second = FaultInjector(FaultSpec(chain_break_rate=0.5, seed=3))
        out1, n1 = first.corrupt_records(records)
        out2, n2 = second.corrupt_records(records)
        assert n1 == n2 > 0
        assert np.array_equal(out1, out2)
        assert np.all(records == 1), "input array must not be mutated"
        assert first.reads_corrupted == n1
        # Each corrupted read has exactly one flipped spin.
        flipped_rows = (out1 != records).sum(axis=1)
        assert set(flipped_rows.tolist()) <= {0, 1}
        assert int((flipped_rows == 1).sum()) == n1

    def test_corrupted_reads_surface_in_sampleset_info(self):
        machine = _small_machine(
            faults=FaultSpec(chain_break_rate=1.0), cells=2
        )
        result = machine.sample_ising(self._one_qubit_model(), num_reads=10)
        assert result.info["injected_read_corruption"] == 10

    def test_reset_restores_injector(self):
        injector = FaultInjector(FaultSpec(fail_first_samples=1))
        with pytest.raises(TransientSolverError):
            injector.before_sample()
        injector.before_sample()  # second call passes
        injector.reset()
        with pytest.raises(TransientSolverError):
            injector.before_sample()
        assert injector.counters()["transient_failures"] == 1


# ----------------------------------------------------------------------
# Embedding: retry budget and structured diagnostics
# ----------------------------------------------------------------------
class TestEmbeddingDiagnostics:
    def test_failure_reports_sizes_and_budget(self):
        source = nx.complete_graph(5)
        target = nx.path_graph(5)
        with pytest.raises(EmbeddingError) as info:
            find_embedding(source, target, seed=0, tries=2, rounds=2, max_attempts=2)
        err = info.value
        assert err.source_size == 5
        assert err.source_edges == 10
        assert err.target_size == 5
        assert err.attempts == 2
        assert err.restarts == 4
        message = str(err)
        assert "source=5 vars/10 edges" in message
        assert "target=5 qubits" in message
        assert "attempts=2" in message

    def test_too_many_variables_reports_sizes(self):
        with pytest.raises(EmbeddingError) as info:
            find_embedding(nx.complete_graph(9), nx.path_graph(4), seed=0)
        assert info.value.source_size == 9
        assert info.value.target_size == 4
        assert info.value.attempts is None

    def test_success_populates_stats(self):
        stats = {}
        embedding = find_embedding(
            nx.complete_graph(3), chimera_graph(1), seed=0, stats=stats
        )
        assert len(embedding) == 3
        assert stats["attempts"] >= 1
        assert stats["restarts"] >= stats["attempts"]

    def test_validate_errors_carry_sizes(self):
        target = chimera_graph(1)
        bad = Embedding({"a": frozenset({0}), "b": frozenset({0})})
        with pytest.raises(EmbeddingError) as info:
            bad.validate([("a", "b")], target)
        assert info.value.source_size == 2
        assert info.value.target_size == len(target)

    def test_cache_key_tracks_working_graph_and_budget(self):
        source = nx.complete_graph(3)
        pristine = chimera_graph(2)
        degraded = FaultInjector(
            FaultSpec(dead_qubit_fraction=0.1, seed=7)
        ).degrade(pristine)
        key_pristine = EmbeddingCache.key_for(source, pristine, seed=0)
        key_degraded = EmbeddingCache.key_for(source, degraded, seed=0)
        assert key_pristine != key_degraded
        assert key_pristine != EmbeddingCache.key_for(
            source, pristine, seed=0, max_attempts=3
        )


# ----------------------------------------------------------------------
# Chain-break repair: majority vote, accounting, escalation
# ----------------------------------------------------------------------
class TestChainBreakRepair:
    def _fixture(self):
        """A 2-variable logical model embedded with one 3-qubit chain."""
        logical = IsingModel()
        logical.add_interaction("x", "y", 0.5)
        embedding = Embedding(
            {"x": frozenset({0, 1, 2}), "y": frozenset({3})}
        )
        target = nx.Graph([(0, 1), (1, 2), (2, 3)])
        physical = embed_ising(logical, embedding, target, chain_strength=2.0)
        return logical, embedding, physical

    def test_majority_vote_repairs_broken_chain(self):
        logical, embedding, physical = self._fixture()
        records = np.tile(
            np.array([1, 1, 1, -1], dtype=np.int8), (20, 1)
        )
        samples = SampleSet.from_array([0, 1, 2, 3], records, physical)
        broken = break_chains(samples, embedding, fraction=1.0, seed=0)
        unembedded = unembed_sampleset(broken, embedding, logical)
        # Majority vote recovers x=+1 in every read despite the damage.
        for i in range(len(unembedded)):
            row = dict(zip(unembedded.variables, unembedded.records[i]))
            assert row["x"] == 1
            assert row["y"] == -1

    def test_chain_break_fraction_reporting(self):
        logical, embedding, physical = self._fixture()
        records = np.tile(np.array([1, 1, 1, -1], dtype=np.int8), (40, 1))
        samples = SampleSet.from_array([0, 1, 2, 3], records, physical)
        broken = break_chains(samples, embedding, fraction=0.5, seed=1)
        unembedded = unembed_sampleset(broken, embedding, logical)
        # Breaks are counted per (read, chain): only x can break, so the
        # fraction is (damaged reads) / (reads * 2 chains) ~ 0.25.
        fraction = unembedded.info["chain_break_fraction"]
        assert 0.05 < fraction < 0.45
        clean = unembed_sampleset(samples, embedding, logical)
        assert clean.info["chain_break_fraction"] == 0.0

    def test_break_chains_needs_a_real_chain(self):
        embedding = Embedding({"x": frozenset({0})})
        physical = IsingModel()
        physical.add_variable(0, 1.0)
        samples = SampleSet.from_array(
            [0], np.ones((5, 1), dtype=np.int8), physical
        )
        with pytest.raises(ValueError, match="no multi-qubit chain"):
            break_chains(samples, embedding, fraction=1.0)
        with pytest.raises(ValueError, match="fraction"):
            break_chains(samples, embedding, fraction=1.5)

    def test_chain_strength_escalation_triggers(self, monkeypatch):
        machine = _small_machine(faults=FaultSpec(chain_break_rate=0.9, seed=1))
        runner = QmasmRunner(machine=machine, seed=0)
        monkeypatch.setattr(runner_module, "CHAIN_BREAK_THRESHOLD", 0.02)
        result = runner.run(AND_PROGRAM, solver="dwave", num_reads=60)
        resilience = result.info["resilience"]
        assert resilience["chain_strength_escalations"] >= 1
        assert result.info["chain_strength"] > 1.0
        counters = _stage(result.stats, "unembed").counters
        assert counters["chain_strength_escalations"] >= 1
        assert "chain_break_fraction" in result.info

    def test_no_escalation_on_healthy_chains(self):
        machine = _small_machine()
        runner = QmasmRunner(machine=machine, seed=0)
        result = runner.run(AND_PROGRAM, solver="dwave", num_reads=40)
        assert "chain_strength_escalations" not in result.info.get(
            "resilience", {}
        )
        assert result.info["chain_break_fraction"] <= 0.25


# ----------------------------------------------------------------------
# RetryPolicy: retries, gauge averaging, graceful degradation
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_sample_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(fallback_solvers=("dwave",))

    def test_transient_failures_are_retried(self):
        machine = _small_machine(faults=FaultSpec(fail_first_samples=2))
        runner = QmasmRunner(machine=machine, seed=0)
        result = runner.run(AND_PROGRAM, solver="dwave", num_reads=40)
        assert result.info["answered_by"] == "dwave"
        resilience = result.info["resilience"]
        assert resilience["sample_retries"] == 2
        assert resilience["sample_failures"] == 2
        assert result.info["fault_injection"]["transient_failures"] == 2
        counters = _stage(result.stats, "sample").counters
        assert counters["sample_attempts"] == 3
        assert counters["fallback_depth"] == 0
        best = result.best
        assert best.values["g.Y"] == (best.values["g.A"] and best.values["g.B"])

    def test_fallback_chain_answers_when_hardware_dies(self):
        machine = _small_machine(faults=FaultSpec(sample_failure_rate=1.0))
        runner = QmasmRunner(machine=machine, seed=0)
        result = runner.run(AND_PROGRAM, solver="dwave", num_reads=40)
        assert result.info["answered_by"] in ("sqa", "tabu", "exact")
        assert result.info["fallback_solver"] == result.info["answered_by"]
        resilience = result.info["resilience"]
        assert resilience["fallback_depth"] >= 1
        assert "last_error" in resilience
        # The fallback tier samples the logical model: still a valid AND.
        best = result.best
        assert best.values["g.Y"] == (best.values["g.A"] and best.values["g.B"])

    def test_exact_fallback_for_tiny_models(self):
        machine = _small_machine(faults=FaultSpec(sample_failure_rate=1.0))
        runner = QmasmRunner(machine=machine, seed=0)
        policy = RetryPolicy(
            max_sample_attempts=1, fallback_solvers=("exact",)
        )
        result = runner.run(
            AND_PROGRAM, solver="dwave", num_reads=40, retry_policy=policy
        )
        assert result.info["answered_by"] == "exact"

    def test_exact_fallback_respects_size_limit(self, monkeypatch):
        machine = _small_machine(faults=FaultSpec(sample_failure_rate=1.0))
        runner = QmasmRunner(machine=machine, seed=0)
        monkeypatch.setattr(runner_module, "EXACT_FALLBACK_LIMIT", 2)
        policy = RetryPolicy(max_sample_attempts=1, fallback_solvers=("exact",))
        with pytest.raises(TransientSolverError, match="no fallback tier"):
            runner.run(
                AND_PROGRAM, solver="dwave", num_reads=10, retry_policy=policy
            )

    def test_no_fallback_raises(self):
        machine = _small_machine(faults=FaultSpec(sample_failure_rate=1.0))
        runner = QmasmRunner(machine=machine, seed=0)
        policy = RetryPolicy(max_sample_attempts=2, fallback_solvers=())
        with pytest.raises(TransientSolverError):
            runner.run(
                AND_PROGRAM, solver="dwave", num_reads=10, retry_policy=policy
            )

    def test_clean_run_reports_no_retries(self):
        machine = _small_machine()
        runner = QmasmRunner(machine=machine, seed=0)
        result = runner.run(AND_PROGRAM, solver="dwave", num_reads=40)
        assert result.info["answered_by"] == "dwave"
        assert "sample_retries" not in result.info["resilience"]
        assert "fault_injection" not in result.info

    def test_classical_solver_reports_itself(self):
        runner = QmasmRunner(seed=0)
        result = runner.run(AND_PROGRAM, solver="sa", num_reads=20)
        assert result.info["answered_by"] == "sa"

    def test_sqa_as_first_class_solver(self):
        runner = QmasmRunner(seed=0)
        result = runner.run(AND_PROGRAM, solver="sqa", num_reads=16)
        best = result.best
        assert best.values["g.Y"] == (best.values["g.A"] and best.values["g.B"])


# ----------------------------------------------------------------------
# Cache disk-tier failures heal into clean misses
# ----------------------------------------------------------------------
class TestCacheDiskResilience:
    def test_truncated_pickle_is_a_clean_miss(self, tmp_path, caplog):
        cache_dir = str(tmp_path / "cache")
        writer = ArtifactCache(cache_dir=cache_dir)
        writer.put("key", {"value": 1})
        path = os.path.join(cache_dir, "key.pkl")
        with open(path, "r+b") as handle:
            handle.truncate(3)

        reader = ArtifactCache(cache_dir=cache_dir)
        with caplog.at_level(logging.DEBUG, logger="repro.core.cache"):
            assert reader.get("key") is None
        assert reader.stats.misses == 1
        assert reader.stats.disk_errors == 1
        assert not os.path.exists(path), "corrupt entry must be deleted"
        warnings = [
            r for r in caplog.records if r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1
        assert "disk tier" in warnings[0].getMessage()
        # The slot heals: a fresh store round-trips again.
        reader.put("key", {"value": 2})
        assert ArtifactCache(cache_dir=cache_dir).get("key") == {"value": 2}

    def test_disk_warning_fires_once(self, tmp_path, caplog):
        cache_dir = str(tmp_path / "cache")
        writer = ArtifactCache(cache_dir=cache_dir)
        writer.put("a", 1)
        writer.put("b", 2)
        for key in ("a", "b"):
            with open(os.path.join(cache_dir, f"{key}.pkl"), "wb") as handle:
                handle.write(b"junk")
        reader = ArtifactCache(cache_dir=cache_dir)
        with caplog.at_level(logging.DEBUG, logger="repro.core.cache"):
            assert reader.get("a") is None
            assert reader.get("b") is None
        assert reader.stats.disk_errors == 2
        warnings = [
            r for r in caplog.records if r.levelno == logging.WARNING
        ]
        assert len(warnings) == 1

    def test_unwritable_disk_tier_degrades_to_memory(self, tmp_path, caplog):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file in the way")
        cache = ArtifactCache(cache_dir=str(blocker))
        with caplog.at_level(logging.DEBUG, logger="repro.core.cache"):
            cache.put("key", 42)
        assert cache.get("key") == 42  # memory tier still works
        assert cache.stats.disk_errors == 1

    def test_non_pickle_garbage_counts_as_error(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, "key.pkl"), "wb") as handle:
            pickle.dump({"value": 1}, handle)
        cache = ArtifactCache(cache_dir=cache_dir)
        assert cache.get("key") == {"value": 1}
        assert cache.stats.disk_errors == 0


# ----------------------------------------------------------------------
# CLI: --inject-fault, --retries, --no-fallback
# ----------------------------------------------------------------------
AND_VERILOG = """
module and2 (A, B, Y);
   input A, B;
   output Y;
   assign Y = A & B;
endmodule
"""


@pytest.fixture()
def verilog_file(tmp_path):
    path = tmp_path / "and2.v"
    path.write_text(AND_VERILOG)
    return str(path)


class TestCli:
    def test_inject_fault_run(self, verilog_file, capsys):
        code = main(
            [
                verilog_file,
                "--run",
                "--solver",
                "dwave",
                "--reads",
                "30",
                "--seed",
                "0",
                "--inject-fault",
                "fail_first=2,seed=7",
                "--time-passes",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sample_retries=2" in out
        assert "2 sample retry(ies)" in out

    def test_bad_fault_spec_reports_error(self, verilog_file, capsys):
        code = main([verilog_file, "--run", "--inject-fault", "bogus=1"])
        assert code == 2
        assert "unknown fault key" in capsys.readouterr().err

    def test_no_fallback_fails_loudly(self, verilog_file, capsys):
        code = main(
            [
                verilog_file,
                "--run",
                "--solver",
                "dwave",
                "--reads",
                "10",
                "--seed",
                "0",
                "--retries",
                "2",
                "--no-fallback",
                "--inject-fault",
                "fail_rate=1.0,seed=7",
            ]
        )
        assert code == 1
        assert "no fallback tier" in capsys.readouterr().err

    def test_fallback_reported(self, verilog_file, capsys):
        code = main(
            [
                verilog_file,
                "--run",
                "--solver",
                "dwave",
                "--reads",
                "30",
                "--seed",
                "0",
                "--inject-fault",
                "fail_rate=1.0,seed=7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "answered by fallback tier" in out


# ----------------------------------------------------------------------
# Slow resilience matrix (CI fault-injection job; see pyproject addopts)
# ----------------------------------------------------------------------
def _matrix_seeds():
    raw = os.environ.get("REPRO_FAULT_SEED", "7")
    return [int(s) for s in raw.split(",") if s.strip()]


def _valid_coloring(solution):
    colors = {r: solution.value_of(r) for r in AUSTRALIA_REGIONS}
    return all(colors[a] != colors[b] for a, b in AUSTRALIA_ADJACENT)


@pytest.mark.slow
@pytest.mark.parametrize("seed", _matrix_seeds())
def test_acceptance_degraded_machine_still_colors_australia(seed):
    """The issue's acceptance scenario, per fault seed.

    A 2000Q with 5% of qubits dead and the first two sample calls
    failing must still produce a valid 4-coloring of Australia, with the
    retries visible in the run statistics.
    """
    machine = DWaveSimulator(
        MachineProperties(dropout_fraction=0.0),
        seed=0,
        faults=FaultSpec(
            dead_qubit_fraction=0.05, fail_first_samples=2, seed=seed
        ),
    )
    compiler = VerilogAnnealerCompiler(machine=machine, seed=0)
    result = compiler.run(
        LISTING_7_AUSTRALIA,
        pins=["valid := true"],
        solver="dwave",
        num_reads=300,
        retry_policy=RetryPolicy(max_sample_attempts=3),
    )

    colorings = [s for s in result.valid_solutions if _valid_coloring(s)]
    assert colorings, "no valid coloring under fault injection"

    embed_counters = _stage(result.stats, "find_embedding").counters
    assert embed_counters["attempts"] >= 1
    sample_counters = _stage(result.stats, "sample").counters
    assert sample_counters["sample_retries"] == 2
    assert result.info["resilience"]["sample_retries"] == 2
    assert result.info["answered_by"] in ("dwave", "sqa", "tabu")
    assert result.info["fault_injection"]["transient_failures"] >= 2


@pytest.mark.slow
@pytest.mark.parametrize("seed", _matrix_seeds())
def test_combined_fault_matrix(seed):
    """Yield + transient + read-corruption faults at once, per seed."""
    machine = _small_machine(
        faults=FaultSpec(
            dead_qubit_fraction=0.05,
            dead_coupler_fraction=0.02,
            fail_first_samples=1,
            chain_break_rate=0.3,
            seed=seed,
        )
    )
    runner = QmasmRunner(machine=machine, seed=seed)
    result = runner.run(AND_PROGRAM, solver="dwave", num_reads=200)
    best = result.best
    assert best.values["g.Y"] == (best.values["g.A"] and best.values["g.B"])
    resilience = result.info["resilience"]
    assert resilience["sample_retries"] >= 1
    assert result.info["fault_injection"]["sample_calls"] >= 2
