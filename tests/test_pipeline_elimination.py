"""The elimination engine: predictor wiring, strikes, blacklist.

The core looks the dead predictor up at rename and trains it at commit
inline, over the engine's columns, so the lookup and training rules are
checked through :class:`Simulator` runs that share one engine.  On
straight-line code every static instruction runs once per run and no
branch follows it, so each dead instance trains its table entry once
per run, along the path it is looked up on.
"""

from repro.analysis import analyze_deadness
from repro.emulator import run_program
from repro.isa import assemble
from repro.pipeline.config import default_config
from repro.pipeline.core import Simulator
from repro.pipeline.elimination import EliminationEngine
from repro.workloads import get_workload

STRAIGHT_LINE = """
    li   t0, 1          # 0: dead, overwritten by 2
    li   t1, 2          # 1: dead, overwritten by 3
    li   t0, 3          # 2
    li   t1, 4          # 3
    add  a0, t0, t1     # 4
    li   v0, 1          # 5
    syscall             # 6
    halt                # 7
"""

#: eligible instances of STRAIGHT_LINE, and the dead ones among them
N_ELIGIBLE = 6
N_DEAD = 2


def _engine():
    _, trace = get_workload("sort").run(scale=0.2)
    analysis = analyze_deadness(trace)
    return EliminationEngine(default_config(eliminate=True), analysis), \
        analysis


def _straight_line():
    """A cold engine for STRAIGHT_LINE, its analysis and its config."""
    _, trace = run_program(assemble(STRAIGHT_LINE))
    analysis = analyze_deadness(trace)
    config = default_config(eliminate=True)
    return EliminationEngine(config, analysis), analysis, config


def _run(engine, analysis, config):
    """One simulation on *engine*, which keeps its table across runs."""
    simulator = Simulator(analysis.trace, config, analysis)
    simulator.elimination = engine
    stats = simulator.run().stats
    assert stats.committed == len(analysis.trace)
    return stats


def _trained():
    """An engine whose table predicts every dead instance dead."""
    engine, analysis, config = _straight_line()
    for _ in range(engine.predictor.threshold):
        _run(engine, analysis, config)
    return engine, analysis, config


def test_paths_cover_trace():
    engine, analysis = _engine()
    assert len(engine.predicted_path) == len(analysis.trace)
    assert len(engine.actual_path) == len(analysis.trace)


def test_cold_engine_predicts_nothing():
    engine, analysis, config = _straight_line()
    assert sum(analysis.dead) == N_DEAD
    stats = _run(engine, analysis, config)
    # Rename looked every eligible instance up, and found nothing.
    assert stats.elim_predictions >= N_ELIGIBLE
    assert stats.eliminated == 0


def test_training_enables_prediction():
    engine, analysis, config = _straight_line()
    # Commit-time training builds confidence one dead outcome per run.
    for _ in range(engine.predictor.threshold):
        assert _run(engine, analysis, config).eliminated == 0
    # At full confidence rename eliminates every dead instance, and no
    # live one (that would have forced a recovery).
    stats = _run(engine, analysis, config)
    assert stats.eliminated == N_DEAD
    assert stats.recoveries == 0


def test_recovery_blacklists_instance():
    engine, analysis, config = _trained()
    tidx = analysis.dead.index(True)
    engine.note_recovery(tidx, analysis.trace.pcs[tidx])
    assert tidx in engine.blacklist
    # However confident the table gets again (each run trains the
    # instance dead at commit), the blacklisted instance executes.
    for _ in range(engine.predictor.threshold + 1):
        assert _run(engine, analysis, config).eliminated == N_DEAD - 1
    engine.blacklist.discard(tidx)
    assert _run(engine, analysis, config).eliminated == N_DEAD


def test_recovery_clears_confidence():
    engine, analysis, config = _trained()
    tidx = analysis.dead.index(True)
    engine.note_recovery(tidx, analysis.trace.pcs[tidx])
    engine.blacklist.discard(tidx)
    # The recovery trained the instance's entry live: it is not
    # eliminated again until commits rebuild the confidence.
    assert _run(engine, analysis, config).eliminated == N_DEAD - 1


def test_strikes_disable_and_decay():
    engine, analysis, config = _trained()
    tidx = analysis.dead.index(True)
    pc = analysis.trace.pcs[tidx]
    for _ in range(2):
        engine.note_recovery(tidx, pc)
    assert engine.strikes[pc] >= engine.max_strikes
    # Strikes disable the static, not one instance: with the blacklist
    # cleared and the confidence rebuilt, its instance still executes.
    engine.blacklist.clear()
    for _ in range(engine.predictor.threshold + 1):
        assert _run(engine, analysis, config).eliminated == N_DEAD - 1
    # Successes and aging decay the counter back below the threshold.
    engine.note_success(pc)
    engine.decay_strikes()
    assert engine.strikes.get(pc, 0) < engine.max_strikes
    assert _run(engine, analysis, config).eliminated == N_DEAD


def test_strike_ceiling():
    engine, analysis = _engine()
    pc = analysis.trace.pcs[0]
    for _ in range(50):
        engine.note_recovery(0, pc)
    assert engine.strikes[pc] <= engine.strike_ceiling


def test_decay_removes_zeroed_entries():
    engine, _ = _engine()
    strikes = engine.strikes
    strikes.update({4: 1, 8: 5})
    engine.decay_strikes()
    # In place: the core reads this dict through its own reference.
    assert engine.strikes is strikes
    assert 4 not in strikes
    assert strikes[8] == 4
