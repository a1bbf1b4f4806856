"""Unit tests for trace distillation (§3.2).

The key tests build *synthetic* packet records from known model
parameters and check that the distiller recovers them exactly — the
algebra of Eqs. 5-10 — plus the correction and windowing behaviour.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.distill import Distiller, ParameterEstimate
from repro.core.replay import QualityTuple
from repro.core.traceformat import DIR_IN, DIR_OUT, PacketRecord

S1 = 88    # small probe IP size
S2 = 1428  # large probe IP size


def _group_records(base_time, group, F, Vb, Vr, sizes=(S1, S2),
                   drop=()):
    """Synthesize one ping group's records under the model.

    RTTs follow Eqs. 5-8 exactly:
        t1 = 2 (F + s1 V);  t2 = 2 (F + s2 V);  t3 = t2 + s2 Vb
    """
    s1, s2 = sizes
    V = Vb + Vr
    t1 = 2 * (F + s1 * V)
    t2 = 2 * (F + s2 * V)
    t3 = t2 + s2 * Vb
    records = []
    seqs = (3 * group, 3 * group + 1, 3 * group + 2)
    rtts = (t1, t2, t3)
    probe_sizes = (s1, s2, s2)
    for seq, size in zip(seqs, probe_sizes):
        records.append(PacketRecord(
            timestamp=base_time, direction=DIR_OUT, proto=1, size=size,
            icmp_type=8, ident=1, seq=seq))
    for i, (seq, rtt, size) in enumerate(zip(seqs, rtts, probe_sizes)):
        if seq in drop:
            continue
        records.append(PacketRecord(
            timestamp=base_time + rtt, direction=DIR_IN, proto=1, size=size,
            icmp_type=0, ident=1, seq=seq, rtt=rtt))
    return records


def _trace(F=2e-3, Vb=5e-6, Vr=1e-6, groups=30, drop=()):
    records = []
    for g in range(groups):
        records.extend(_group_records(float(g), g, F, Vb, Vr, drop=drop))
    return records


# ----------------------------------------------------------------------
# Parameter recovery
# ----------------------------------------------------------------------
def test_exact_recovery_of_model_parameters():
    result = Distiller().distill(_trace(F=2e-3, Vb=5e-6, Vr=1e-6))
    tup = result.replay.tuples[10]
    assert tup.F == pytest.approx(2e-3, rel=1e-6)
    assert tup.Vb == pytest.approx(5e-6, rel=1e-6)
    assert tup.Vr == pytest.approx(1e-6, rel=1e-6)
    assert tup.L == 0.0


def test_all_groups_used_when_clean():
    result = Distiller().distill(_trace(groups=20))
    assert result.groups_used == 20
    assert result.groups_corrected == 0
    assert result.groups_skipped == 0


def test_zero_residual_cost_recovered():
    result = Distiller().distill(_trace(Vb=6e-6, Vr=0.0))
    assert result.replay.tuples[5].Vr == pytest.approx(0.0, abs=1e-12)


def test_replay_duration_covers_trace():
    result = Distiller().distill(_trace(groups=30))
    assert result.replay.duration >= 29.0


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=1e-4, max_value=0.2),
       st.floats(min_value=5e-7, max_value=5e-5),
       st.floats(min_value=0.0, max_value=2e-5))
def test_recovery_for_arbitrary_true_parameters(F, Vb, Vr):
    """Property: noiseless observations invert exactly (Eqs. 5-8)."""
    result = Distiller().distill(_trace(F=F, Vb=Vb, Vr=Vr, groups=12))
    tup = result.replay.tuples[6]
    assert tup.F == pytest.approx(F, rel=1e-5, abs=1e-9)
    assert tup.Vb == pytest.approx(Vb, rel=1e-5)
    assert tup.Vr == pytest.approx(Vr, rel=1e-5, abs=1e-10)


# ----------------------------------------------------------------------
# Negative-parameter correction
# ----------------------------------------------------------------------
def _inconsistent_group(base_time, group, F, Vb, Vr, t1_extra):
    """A group whose small probe saw extra delay (media access burst)."""
    records = _group_records(base_time, group, F, Vb, Vr)
    # Inflate t1 only: solving now yields V < 0 -> correction path.
    for rec in records:
        if rec.direction == DIR_IN and rec.seq == 3 * group:
            rec.rtt += t1_extra
            rec.timestamp += t1_extra
    return records


def test_inconsistent_group_triggers_correction():
    records = []
    for g in range(5):
        records.extend(_group_records(float(g), g, 2e-3, 5e-6, 1e-6))
    records.extend(_inconsistent_group(5.0, 5, 2e-3, 5e-6, 1e-6, t1_extra=0.05))
    result = Distiller().distill(records)
    assert result.groups_corrected == 1
    assert result.groups_used == 6


def test_correction_reuses_previous_per_byte_costs():
    records = []
    for g in range(5):
        records.extend(_group_records(float(g), g, 2e-3, 5e-6, 1e-6))
    records.extend(_inconsistent_group(5.0, 5, 2e-3, 5e-6, 1e-6, t1_extra=0.05))
    result = Distiller(window_width=0.5, step=1.0).distill(records)
    corrected = [e for e in result.estimates if e.corrected]
    assert len(corrected) == 1
    est = corrected[0]
    assert est.Vb == pytest.approx(5e-6, rel=1e-6)
    assert est.Vr == pytest.approx(1e-6, rel=1e-6)
    # The whole deviation lands in latency.
    assert est.F == pytest.approx(2e-3 + 0.025, rel=1e-3)


def test_correction_does_not_cascade():
    """A corrected estimate must not seed later corrections (§3.2.2)."""
    records = []
    records.extend(_group_records(0.0, 0, 2e-3, 5e-6, 1e-6))
    records.extend(_inconsistent_group(1.0, 1, 2e-3, 5e-6, 1e-6, 0.05))
    records.extend(_inconsistent_group(2.0, 2, 2e-3, 5e-6, 1e-6, 0.08))
    result = Distiller().distill(records)
    corrected = [e for e in result.estimates if e.corrected]
    # Both corrections reference group 0's genuine estimate, so both
    # report its Vb exactly.
    assert all(e.Vb == pytest.approx(5e-6, rel=1e-6) for e in corrected)
    # F corrections are anchored to group 0, not to each other.
    assert corrected[1].F == pytest.approx(2e-3 + 0.04, rel=1e-3)


def test_leading_bad_group_is_skipped():
    records = list(_inconsistent_group(0.0, 0, 2e-3, 5e-6, 1e-6, 0.05))
    records.extend(_group_records(1.0, 1, 2e-3, 5e-6, 1e-6))
    result = Distiller().distill(records)
    assert result.groups_skipped == 1
    assert result.groups_used == 1


# ----------------------------------------------------------------------
# Incomplete groups and loss
# ----------------------------------------------------------------------
def test_group_with_missing_reply_skipped_for_delay():
    records = _trace(groups=10, drop={7})  # drop one large reply
    result = Distiller().distill(records)
    assert result.groups_skipped == 1


def test_loss_estimate_zero_when_all_replies_arrive():
    result = Distiller().distill(_trace(groups=20))
    assert result.replay.mean_loss() == 0.0


def test_loss_estimate_follows_equation_10():
    # Drop every reply of groups 8..11 (12 echoes lost of those sent).
    drop = set()
    for g in range(8, 12):
        drop.update({3 * g, 3 * g + 1, 3 * g + 2})
    records = _trace(groups=30, drop=drop)
    result = Distiller().distill(records)
    peak = max(t.L for t in result.replay)
    # Inside the outage the loss estimate must rise sharply; the span
    # extension to adjacent replies mixes in a few answered echoes, so
    # the peak sits below 1 but far above background.
    assert peak > 0.35
    # Windows fully outside the outage see no loss at all.
    assert result.replay.tuples[2].L == 0.0


def test_overall_loss_estimate_property():
    drop = {3 * g for g in range(10)}  # lose 10 small replies of 90 echoes
    records = _trace(groups=30, drop=drop)
    result = Distiller().distill(records)
    expected = 1.0 - math.sqrt(1.0 - 10 / 90)
    assert result.overall_loss_estimate == pytest.approx(expected, rel=1e-6)


# ----------------------------------------------------------------------
# Windowing
# ----------------------------------------------------------------------
def test_window_averages_step_changes():
    records = []
    for g in range(10):
        records.extend(_group_records(float(g), g, 1e-3, 4e-6, 1e-6))
    for g in range(10, 20):
        records.extend(_group_records(float(g), g, 9e-3, 4e-6, 1e-6))
    result = Distiller(window_width=5.0, step=1.0).distill(records)
    early = result.replay.tuples[2].F
    late = result.replay.tuples[17].F
    middle = result.replay.tuple_at(10.0).F
    assert early == pytest.approx(1e-3, rel=1e-3)
    assert late == pytest.approx(9e-3, rel=1e-3)
    assert early < middle < late  # the window straddles the step


def test_gap_in_estimates_holds_previous_tuple():
    records = []
    for g in list(range(5)) + list(range(15, 20)):
        records.extend(_group_records(float(g), g, 2e-3, 5e-6, 1e-6))
    result = Distiller().distill(records)
    mid = result.replay.tuple_at(10.0)
    assert mid.F == pytest.approx(2e-3, rel=1e-3)


def test_tuple_step_matches_distiller_step():
    result = Distiller(step=2.0).distill(_trace(groups=10))
    assert all(t.d == 2.0 for t in result.replay)


def test_custom_ident_filter():
    records = _trace(groups=5)
    other = _trace(groups=5)
    for rec in other:
        rec.ident = 99
        rec.rtt = rec.rtt * 10 if rec.rtt > 0 else rec.rtt
    result = Distiller(ident=1).distill(records + other)
    assert result.groups_used == 5


# The seed's scalar windowing, kept verbatim as the oracle for
# ``Distiller._window``: a linear scan per window over every estimate,
# reply and echo.
def _oracle_window(self, estimates, echo_out, replies, t0, duration):
    if not estimates:
        raise ValueError("no usable packet groups; cannot distill")
    echoes = sorted((p.timestamp - t0, p.seq) for p in echo_out)
    reply_times = sorted(p.timestamp - t0 for p in replies)
    answered = {p.seq for p in replies}
    tuples = []
    prev = None
    steps = max(1, int(math.ceil(duration / self.step)))
    for k in range(steps):
        lo = k * self.step
        hi = lo + self.step
        center = (lo + hi) / 2.0
        w_lo = center - self.window_width / 2.0
        w_hi = center + self.window_width / 2.0
        in_window = [e for e in estimates if w_lo <= e.time < w_hi]
        if in_window:
            n = len(in_window)
            F = sum(e.F for e in in_window) / n
            Vb = sum(e.Vb for e in in_window) / n
            Vr = sum(e.Vr for e in in_window) / n
        elif prev is not None:
            F, Vb, Vr = prev.F, prev.Vb, prev.Vr
        else:
            first = estimates[0]
            F, Vb, Vr = first.F, first.Vb, first.Vr
        L = _oracle_loss_for_window(w_lo, w_hi, echoes, answered,
                                    reply_times,
                                    prev.L if prev is not None else 0.0)
        tup = QualityTuple(d=self.step, F=max(0.0, F), Vb=max(0.0, Vb),
                           Vr=max(0.0, Vr), L=L)
        tuples.append(tup)
        prev = tup
    return tuples


def _oracle_loss_for_window(w_lo, w_hi, echoes, answered, reply_times,
                            fallback):
    span_lo = w_lo
    span_hi = w_hi
    before = [t for t in reply_times if t < w_lo]
    after = [t for t in reply_times if t > w_hi]
    if before:
        span_lo = before[-1]
    if after:
        span_hi = after[0]
    sent = [seq for t, seq in echoes if span_lo <= t <= span_hi]
    a = len(sent)
    if a == 0:
        return fallback
    b = sum(1 for seq in sent if seq in answered)
    ratio = min(1.0, b / a)
    return max(0.0, 1.0 - math.sqrt(ratio))


# Times either on a coarse grid, so they tie window edges, or anywhere.
_times = st.one_of(
    st.integers(min_value=-8, max_value=100).map(lambda i: i * 0.25),
    st.floats(min_value=-2.0, max_value=25.0))
_costs = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _window_inputs(draw):
    estimates = draw(st.lists(
        st.builds(ParameterEstimate, time=_times, F=_costs, Vb=_costs,
                  Vr=_costs, corrected=st.booleans()),
        min_size=1, max_size=40))
    if draw(st.booleans()):
        estimates.sort(key=lambda e: e.time)
    t0 = draw(st.sampled_from([0.0, 1000.3]))
    echo_times = draw(st.lists(_times, max_size=60))
    echo_out = [PacketRecord(timestamp=t0 + t, direction=DIR_OUT, proto=1,
                             size=S1, icmp_type=8, ident=1, seq=seq)
                for seq, t in enumerate(echo_times)]
    # Replies answer a subset of the echoes; some carry sequence
    # numbers that match no echo at all.
    seqs = draw(st.lists(st.integers(min_value=0,
                                     max_value=len(echo_times) + 10),
                         unique=True))
    replies = [PacketRecord(timestamp=t0 + draw(_times), direction=DIR_IN,
                            proto=1, size=S1, icmp_type=0, ident=1, seq=seq)
               for seq in seqs]
    duration = draw(st.floats(min_value=0.0, max_value=25.0))
    return estimates, echo_out, replies, t0, duration


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([0.5, 1.0, 5.0, 15.0]),
       st.sampled_from([0.25, 1.0, 2.0]),
       _window_inputs())
def test_window_matches_scalar_oracle(width, step, inputs):
    """Property: the bisect window gives the seed scalar's exact floats,
    for sorted and unsorted estimates, edge ties and unmatched replies."""
    distiller = Distiller(window_width=width, step=step)
    got = distiller._window(*inputs)
    want = _oracle_window(distiller, *inputs)

    def bits(tuples):
        return [struct.pack("<5d", t.d, t.F, t.Vb, t.Vr, t.L)
                for t in tuples]

    assert bits(got) == bits(want)


# ----------------------------------------------------------------------
# Error handling
# ----------------------------------------------------------------------
def test_empty_trace_rejected():
    with pytest.raises(ValueError):
        Distiller().distill([])


def test_single_probe_size_rejected():
    records = [r for r in _trace(groups=5) if r.size == S1]
    with pytest.raises(ValueError):
        Distiller().distill(records)


def test_invalid_window_parameters():
    with pytest.raises(ValueError):
        Distiller(window_width=0.0)
    with pytest.raises(ValueError):
        Distiller(step=-1.0)


def test_status_records_passed_through():
    from repro.core.traceformat import DeviceStatusRecord

    records = _trace(groups=5)
    records.append(DeviceStatusRecord(2.0, 15.0, 10.0, 3.0))
    result = Distiller().distill(records)
    assert len(result.status_records) == 1
