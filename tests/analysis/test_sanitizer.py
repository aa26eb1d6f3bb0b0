"""Schedule-sanitizer semantics: equivalence, races, proofs, wiring.

Three contracts pinned here:

* **transparency** — a sanitizer attached with permutation off changes
  neither the dispatch order nor a single drawn random value, so the
  pinned chaos replay fingerprints survive sanitized runs;
* **race semantics** — same-timestamp conflicting accesses without a
  happens-before edge are reported; causally-ordered and commutative
  accesses are not;
* **proof protocol** — :func:`prove_order_independence` proves an
  order-independent workload in two runs and refutes an
  order-dependent one with a minimized, comparable witness pair.
"""

import pytest

from repro.analysis.sanitizer import (
    SanitizeConfig,
    ScheduleSanitizer,
    prove_order_independence,
)
from repro.errors import AnalysisError
from repro.sim.kernel import Environment
from repro.sim.rng import RandomStreams


def _trace_workload(env, log):
    """A workload with same-timestamp batches, cascades, and processes."""

    def worker(name, delay):
        yield env.timeout(delay)
        log.append((env.now, name))
        yield env.timeout(0)
        log.append((env.now, f"{name}/cascade"))

    for index in range(4):
        env.process(worker(f"w{index}", 1.0))
    env.process(worker("late", 2.5))


# -- transparency -----------------------------------------------------------


def test_sanitized_dispatch_is_bit_identical_to_plain():
    plain_log = []
    env = Environment()
    _trace_workload(env, plain_log)
    env.run()

    sanitized_log = []
    env2 = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env2)
    _trace_workload(env2, sanitized_log)
    env2.run()
    sanitizer.detach()

    assert sanitized_log == plain_log
    assert env2.now == env.now
    assert sanitizer.batches > 0
    assert sanitizer.permuted_batches == 0


def test_detach_restores_the_plain_hot_loop():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    assert env._sanitizer is sanitizer
    sanitizer.detach()
    assert env._sanitizer is None
    with pytest.raises(AnalysisError):
        # Double-attach on one environment is a caller bug.
        other = ScheduleSanitizer(SanitizeConfig()).attach(env)
        ScheduleSanitizer(SanitizeConfig()).attach(env)
        other.detach()


def test_config_rejects_unknown_permutation_order():
    with pytest.raises(AnalysisError):
        SanitizeConfig(order="shuffled")


def test_tracked_rng_draws_identical_values():
    sanitizer = ScheduleSanitizer(SanitizeConfig())
    streams = RandomStreams(7)
    sanitizer.track_streams(streams)
    tracked = [streams.stream("alpha").random(),
               streams.stream("alpha").uniform(0, 10),
               streams.stream("alpha").randrange(1000)]
    raw = RandomStreams(7).stream("alpha")
    assert tracked == [raw.random(), raw.uniform(0, 10),
                       raw.randrange(1000)]


def test_distinct_streams_survive_rng_id_reuse():
    """Regression: the wrap memo must pin raw rngs alive.

    Keyed by ``id()`` alone, a freed stream's address gets recycled by
    the next ``stream()`` call and two different streams silently alias
    onto one wrapper (and one state) — which shifted every chaos
    signature the first time the sanitizer was attached.
    """
    sanitizer = ScheduleSanitizer(SanitizeConfig())
    streams = RandomStreams(7)
    sanitizer.track_streams(streams)
    drawn = {}
    for name in ("alpha", "beta", "gamma", "delta"):
        drawn[name] = streams.stream(name).random()
    raw = RandomStreams(7)
    for name, value in drawn.items():
        assert raw.stream(name).random() == value, f"{name} aliased"


def test_spawned_stream_families_inherit_tracking():
    sanitizer = ScheduleSanitizer(SanitizeConfig())
    streams = RandomStreams(7)
    sanitizer.track_streams(streams)
    child = streams.spawn("recovery/zone-a")
    value = child.stream("backoff").random()
    assert value == RandomStreams(7).spawn(
        "recovery/zone-a").stream("backoff").random()
    from repro.analysis.sanitizer import TrackedRandom
    assert isinstance(child.stream("backoff"), TrackedRandom)


# -- race semantics ---------------------------------------------------------


def _run_two(env, sanitizer, first, second, delay=1.0):
    """Dispatch two generators as same-timestamp sibling events."""

    def as_process(fn):
        def runner():
            yield env.timeout(delay)
            fn()
        return runner

    env.process(as_process(first)())
    env.process(as_process(second)())
    env.run()
    sanitizer.detach()


def test_same_time_rmw_on_shared_key_is_a_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("ledger", {"x": 0})
    _run_two(env, sanitizer,
             lambda: state.__setitem__("x", state["x"] * 2),
             lambda: state.__setitem__("x", state["x"] + 3))
    kinds = {race.kind_pair for race in sanitizer.races}
    assert "read-write" in kinds or "write-write" in kinds


def test_commutative_appends_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    log = sanitizer.track_value("log", [])
    _run_two(env, sanitizer,
             lambda: log.append("a"), lambda: log.append("b"))
    assert sanitizer.races == []
    assert sorted(log) == ["a", "b"]


def test_append_vs_len_read_is_a_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    log = sanitizer.track_value("log", [])
    _run_two(env, sanitizer,
             lambda: log.append("a"), lambda: len(log))
    assert any(race.state == "log" for race in sanitizer.races)


def test_distinct_dict_keys_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("state", {})
    _run_two(env, sanitizer,
             lambda: state.__setitem__("a", 1),
             lambda: state.__setitem__("b", 2))
    assert sanitizer.races == []


def test_equal_frozenset_keys_are_one_item():
    """Link ends are frozensets: two equal ones built separately name the
    same link, so writes through either must be compared."""
    from repro.analysis.sanitizer import _item_key

    ends = frozenset(["cern", "fnal"])
    same_ends = frozenset(["fnal", "cern"])
    assert ends is not same_ends
    assert _item_key(ends) == _item_key(same_ends) == "{'cern', 'fnal'}"
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    links = sanitizer.track_value("links", {})
    _run_two(env, sanitizer,
             lambda: links.__setitem__(frozenset(["cern", "fnal"]), "down"),
             lambda: links.__setitem__(frozenset(["fnal", "cern"]), "up"))
    assert [(race.state, race.item, race.kind_pair)
            for race in sanitizer.races] == [
                ("links", "{'cern', 'fnal'}", "write-write")]


def test_causally_ordered_writes_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("state", {"x": 0})

    def parent():
        yield env.timeout(1)
        state["x"] = state["x"] + 1
        child = env.timeout(0)

        def on_child(_event):
            state["x"] = state["x"] * 10
        child.callbacks.append(on_child)

    env.process(parent())
    env.run()
    sanitizer.detach()
    assert sanitizer.races == []
    assert state["x"] == 10


def test_same_time_draws_from_a_shared_stream_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    streams = RandomStreams(1)
    sanitizer.track_streams(streams)
    rng = streams.stream("shared/jitter")
    out = []
    _run_two(env, sanitizer,
             lambda: out.append(rng.random()),
             lambda: out.append(rng.random()))
    assert any(race.state == "stream:shared/jitter"
               for race in sanitizer.races)


def test_per_consumer_streams_do_not_race():
    env = Environment()
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    streams = RandomStreams(1)
    sanitizer.track_streams(streams)
    a, b = streams.stream("consumer/a"), streams.stream("consumer/b")
    out = []
    _run_two(env, sanitizer,
             lambda: out.append(a.random()),
             lambda: out.append(b.random()))
    assert sanitizer.races == []


# -- proof protocol ---------------------------------------------------------


def _independent_workload(config):
    sanitizer = ScheduleSanitizer(config)
    env = Environment()
    sanitizer.attach(env)
    log = sanitizer.track_value("log", [])

    def worker(name):
        yield env.timeout(1)
        log.append(name)

    for index in range(4):
        env.process(worker(f"w{index}"))
    env.run()
    sanitizer.detach()
    return tuple(sorted(log)), sanitizer


def _dependent_workload(config):
    sanitizer = ScheduleSanitizer(config)
    env = Environment()
    sanitizer.attach(env)
    state = sanitizer.track_value("state", {"x": 0})

    def double():
        yield env.timeout(1)
        state["x"] = state["x"] * 2

    def add():
        yield env.timeout(1)
        state["x"] = state["x"] + 3

    env.process(double())
    env.process(add())
    env.run()
    sanitizer.detach()
    return (state["x"],), sanitizer


def test_proof_proves_an_order_independent_workload():
    proof = prove_order_independence(_independent_workload)
    assert proof.proved
    # Baseline + one run per adversary schedule + the prefix probes.
    assert proof.runs >= 4
    assert proof.choice_batches >= 1
    assert proof.witness is None


def test_proof_refutes_with_a_minimized_witness():
    proof = prove_order_independence(_dependent_workload)
    assert not proof.proved
    assert proof.races_total > 0
    assert proof.witness is not None
    witness = proof.witness
    # The minimal flip point is the t=0 creation batch: permuting the
    # two Initialize events re-pairs the t=1 read-modify-writes.
    assert witness.choice_batch == 1
    assert witness.time == 0.0
    # The same batch captured under both schedules, directly comparable.
    assert sorted(witness.baseline_order) == sorted(witness.permuted_order)
    assert witness.baseline_order != witness.permuted_order
    assert witness.baseline_signature != witness.permuted_signature


def test_random_order_uses_the_permute_seed():
    proof = prove_order_independence(_dependent_workload, order="random",
                                     permute_seed=5)
    assert not proof.proved


# -- chaos harness wiring ---------------------------------------------------


def test_sanitized_chaos_run_keeps_the_exact_signature():
    from repro.workloads.chaos import run_chaos

    plain = run_chaos(3)
    sanitized = run_chaos(3, sanitize=True)
    assert sanitized.signature == plain.signature
    assert sanitized.sanitizer is not None
    assert sanitized.sanitizer["batches"] > 0
    assert sanitized.canonical != ()
    assert plain.sanitizer is None and plain.canonical == ()


def test_sanitized_federation_run_keeps_the_exact_signature():
    from repro.federation.chaos import run_federation_chaos

    plain = run_federation_chaos(0)
    sanitized = run_federation_chaos(0, sanitize=True)
    assert sanitized.signature == plain.signature
    assert sanitized.sanitizer is not None


def test_shipped_chaos_seed_is_order_independent():
    from repro.workloads.chaos import prove_chaos_order_independence

    proof = prove_chaos_order_independence(3)
    assert proof.proved, proof.to_dict()


def test_shipped_federation_seed_is_order_independent():
    from repro.federation.chaos import prove_federation_order_independence

    proof = prove_federation_order_independence(0)
    assert proof.proved, proof.to_dict()


def test_sanitizer_telemetry_counters_tick():
    from repro.workloads.chaos import run_chaos

    report = run_chaos(3, sanitize=True)
    assert report.sanitizer["batches"] > 0
    # Counter wiring, exercised directly on a tiny racy workload.
    from repro.telemetry.instrument import attach_telemetry

    env = Environment()
    telemetry = attach_telemetry(env)
    sanitizer = ScheduleSanitizer(SanitizeConfig()).attach(env)
    state = sanitizer.track_value("state", {"x": 0})

    def bump():
        yield env.timeout(1)
        state["x"] = state["x"] + 1

    env.process(bump())
    env.process(bump())
    env.run()
    sanitizer.detach()
    assert telemetry.sanitizer_batches.value > 0
    assert sanitizer.races, "expected a read-write race"
    kind = sanitizer.races[0].kind_pair
    assert telemetry.sanitizer_races.labels(kind=kind).value > 0
