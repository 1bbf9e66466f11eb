"""Property tests for the scenario factory (:mod:`repro.workloads`).

Four seeded properties the rest of the suite leans on:

* **Zipf rank-frequency monotonicity** — the exact weight table is
  strictly decreasing in rank, and large empirical samples respect the
  head ordering.
* **Arrival-process determinism** — every registered process replays
  the same timestamps for the same seed and diverges across seeds.
* **Trace round-trip byte-identity** — ``dumps(loads(dumps(t)))`` is
  the identity on bytes, checksums self-verify, and tampering fails
  loudly.
* **Tenant key-space disjointness** — tenants own disjoint ranges and
  every sampled key lands inside its owner's range.

Plus the structural property that makes the skew differentials
meaningful: same ``(count, seed)`` across distributions ⇒ identical
shape (ops, values, balancers), different keys.
"""

import math
import random

import pytest

from repro.types import OpType
from repro.workloads import (
    ARRIVAL_PROCESSES,
    TenantSpec,
    Trace,
    TraceFormatError,
    TraceRecord,
    WorkloadSpec,
    ZipfSampler,
    arrival_times,
    bursty_arrivals,
    diurnal_arrivals,
    dumps_trace,
    flash_crowd_arrivals,
    generate_requests,
    generate_schedule,
    loads_trace,
    parse_workload_spec,
    poisson_arrivals,
    record_trace,
    uniform_requests,
    write_ratio_sweep,
    zipf_requests,
)


class TestZipfMonotonicity:
    def test_weight_table_strictly_decreasing(self):
        sampler = ZipfSampler(200, 1.2, random.Random(0))
        weights = sampler.weights()
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_weights_match_power_law(self):
        sampler = ZipfSampler(50, 1.5, random.Random(0))
        weights = sampler.weights()
        for rank in (0, 7, 49):
            assert weights[rank] == pytest.approx((rank + 1) ** -1.5)

    def test_empirical_head_ordering(self):
        rng = random.Random(42)
        sampler = ZipfSampler(64, 1.2, rng)
        counts = [0] * 64
        for _ in range(20_000):
            counts[sampler.sample()] += 1
        # The head must dominate: each of the first few ranks beats the
        # tail average by a wide margin.
        tail_mean = sum(counts[8:]) / len(counts[8:])
        assert counts[0] > counts[1] > tail_mean
        assert counts[0] > 4 * tail_mean

    def test_higher_exponent_is_hotter(self):
        def head_share(exponent):
            sampler = ZipfSampler(64, exponent, random.Random(7))
            hits = sum(1 for _ in range(5000) if sampler.sample() < 4)
            return hits / 5000

        assert head_share(1.6) > head_share(1.0) > head_share(0.5)


class TestArrivalDeterminism:
    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_same_seed_same_times(self, process):
        a = arrival_times(process, 500.0, seed=11, count=200)
        b = arrival_times(process, 500.0, seed=11, count=200)
        assert a == b
        assert len(a) == 200

    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_different_seed_different_times(self, process):
        a = arrival_times(process, 500.0, seed=11, count=200)
        b = arrival_times(process, 500.0, seed=12, count=200)
        assert a != b

    @pytest.mark.parametrize("process", sorted(ARRIVAL_PROCESSES))
    def test_times_are_increasing(self, process):
        times = arrival_times(process, 500.0, seed=3, count=300)
        assert all(s < t for s, t in zip(times, times[1:]))

    def test_flash_crowd_spikes(self):
        rng = random.Random(5)
        times = list(flash_crowd_arrivals(
            100.0, 4.0, spike_factor=10.0, spike_at=2.0, spike_length=1.0,
            rng=rng,
        ))
        in_spike = sum(1 for t in times if 2.0 <= t < 3.0)
        before = sum(1 for t in times if 1.0 <= t < 2.0)
        assert in_spike > 4 * before

    def test_diurnal_modulation(self):
        rng = random.Random(9)
        period = 4.0
        times = list(diurnal_arrivals(
            200.0, period * 2, amplitude=0.9, period=period, rng=rng,
        ))
        # Peak half-cycles must out-arrive trough half-cycles.
        peak = sum(
            1 for t in times if math.sin(2 * math.pi * t / period) > 0
        )
        trough = len(times) - peak
        assert peak > 1.5 * trough


class TestTraceRoundTrip:
    def spec(self):
        return WorkloadSpec(
            distribution="zipf", num_keys=96, zipf_exponent=1.3,
            value_size=12, write_fraction=0.4,
        )

    def test_dumps_loads_byte_identity(self):
        trace = record_trace(self.spec(), 64, seed=21, rate=800.0)
        text = dumps_trace(trace)
        again = dumps_trace(loads_trace(text))
        assert text == again

    def test_rerecording_is_identical(self):
        a = dumps_trace(record_trace(self.spec(), 64, seed=21))
        b = dumps_trace(record_trace(self.spec(), 64, seed=21))
        assert a == b
        c = dumps_trace(record_trace(self.spec(), 64, seed=22))
        assert a != c

    def test_round_trip_preserves_semantics(self):
        trace = record_trace(self.spec(), 48, seed=4)
        loaded = loads_trace(dumps_trace(trace))
        assert loaded.records == trace.records
        assert loaded.spec == trace.spec
        assert loaded.seed == trace.seed
        assert loaded.checksum() == trace.checksum()
        assert [r.to_request() for r in loaded] == trace.requests()

    def test_tampered_record_fails_checksum(self):
        trace = record_trace(self.spec(), 16, seed=4)
        lines = dumps_trace(trace).splitlines()
        for index in range(1, len(lines)):
            if '"op":"read"' in lines[index]:
                lines[index] = lines[index].replace(
                    '"op":"read"', '"op":"write"'
                )
                break
        else:
            pytest.fail("trace had no read record to tamper with")
        with pytest.raises(TraceFormatError):
            loads_trace("\n".join(lines) + "\n")

    def test_truncated_trace_fails(self):
        trace = record_trace(self.spec(), 16, seed=4)
        lines = dumps_trace(trace).splitlines()
        with pytest.raises(TraceFormatError):
            loads_trace("\n".join(lines[:-2]) + "\n")

    def test_wrong_version_rejected(self):
        trace = record_trace(self.spec(), 4, seed=4)
        text = dumps_trace(trace).replace('"version":1', '"version":99')
        with pytest.raises(TraceFormatError):
            loads_trace(text)

    def test_not_a_trace_rejected(self):
        with pytest.raises(TraceFormatError):
            loads_trace('{"format":"something-else","version":1}\n')
        with pytest.raises(TraceFormatError):
            loads_trace("")

    def test_shape_identical_traces_differ_only_in_keys(self):
        uniform = WorkloadSpec(distribution="uniform", num_keys=96,
                               value_size=12, write_fraction=0.4)
        zipf = self.spec()
        a = record_trace(uniform, 64, seed=21, rate=800.0)
        b = record_trace(zipf, 64, seed=21, rate=800.0)
        assert [r.t for r in a] == [r.t for r in b]
        assert [(r.op, r.value) for r in a] == [(r.op, r.value) for r in b]
        assert [r.key for r in a] != [r.key for r in b]

    def test_epoch_groups_cover_all_records(self):
        trace = record_trace(self.spec(), 64, seed=8, rate=500.0)
        groups = trace.epoch_groups(0.05)
        assert sum(len(g) for g in groups) == len(trace)
        for index, group in enumerate(groups):
            for r in group:
                assert index * 0.05 <= r.t < (index + 1) * 0.05


class TestTenantDisjointness:
    def mix(self):
        return WorkloadSpec(
            distribution="tenant",
            write_fraction=0.5,
            value_size=8,
            tenants=(
                TenantSpec(tenant_id=1, num_keys=40, weight=3.0,
                           distribution="zipf", zipf_exponent=1.2),
                TenantSpec(tenant_id=2, num_keys=24, weight=1.0),
                TenantSpec(tenant_id=3, num_keys=16, weight=1.0),
            ),
        )

    def test_ranges_are_disjoint_and_cover(self):
        ranges = self.mix().key_ranges()
        assert ranges == [(1, 0, 40), (2, 40, 64), (3, 64, 80)]
        assert self.mix().total_keys == 80

    def test_sampled_keys_stay_in_owner_range(self):
        spec = self.mix()
        bounds = {t: (lo, hi) for t, lo, hi in spec.key_ranges()}
        requests = generate_requests(spec, 2000, seed=13)
        seen = set()
        for request in requests:
            lo, hi = bounds[request.client_id]
            assert lo <= request.key < hi
            seen.add(request.client_id)
        assert seen == {1, 2, 3}

    def test_weights_steer_traffic(self):
        requests = generate_requests(self.mix(), 4000, seed=13)
        per_tenant = {t: 0 for t in (1, 2, 3)}
        for request in requests:
            per_tenant[request.client_id] += 1
        assert per_tenant[1] > 2 * per_tenant[2]

    def test_duplicate_tenant_ids_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            WorkloadSpec(
                distribution="tenant",
                tenants=(
                    TenantSpec(tenant_id=1, num_keys=8),
                    TenantSpec(tenant_id=1, num_keys=8),
                ),
            )


class TestShapeInvariance:
    def test_requests_same_shape_across_distributions(self):
        specs = [
            WorkloadSpec(distribution="uniform", num_keys=80),
            WorkloadSpec(distribution="zipf", num_keys=80,
                         zipf_exponent=1.4),
        ]
        runs = [generate_requests(spec, 120, seed=3) for spec in specs]
        shapes = [
            [(r.op, r.value, r.seq) for r in run] for run in runs
        ]
        assert shapes[0] == shapes[1]
        assert [r.key for r in runs[0]] != [r.key for r in runs[1]]

    def test_schedule_same_shape_across_distributions(self):
        uniform = generate_schedule(
            WorkloadSpec(distribution="uniform", num_keys=80),
            3, 10, seed=5, num_balancers=2,
        )
        zipf = generate_schedule(
            WorkloadSpec(distribution="zipf", num_keys=80,
                         zipf_exponent=1.2),
            3, 10, seed=5, num_balancers=2,
        )
        shape = lambda sched: [  # noqa: E731
            [(r.op, r.value, lb) for r, lb in epoch] for epoch in sched
        ]
        assert shape(uniform) == shape(zipf)

    def test_write_fraction_controls_shape(self):
        spec = WorkloadSpec(distribution="uniform", num_keys=32)
        for fraction, expect in ((0.0, 0), (1.0, 400)):
            swept = write_ratio_sweep(spec, [fraction])[0]
            requests = generate_requests(swept, 400, seed=1)
            writes = sum(1 for r in requests if r.op is OpType.WRITE)
            assert writes == expect

    def test_write_ratio_sweep_preserves_everything_else(self):
        spec = WorkloadSpec(distribution="zipf", num_keys=64,
                            zipf_exponent=1.3)
        family = write_ratio_sweep(spec, [0.0, 0.25, 1.0])
        assert [s.write_fraction for s in family] == [0.0, 0.25, 1.0]
        assert all(s.zipf_exponent == 1.3 for s in family)


class TestSpecParsing:
    def test_shorthands(self):
        assert parse_workload_spec("uniform").distribution == "uniform"
        assert parse_workload_spec("zipf:1.4").zipf_exponent == 1.4
        tenant = parse_workload_spec("tenant:3x16")
        assert tenant.distribution == "tenant"
        assert tenant.total_keys == 48
        assert len(tenant.tenants) == 3

    def test_defaults_flow_through(self):
        spec = parse_workload_spec(
            "zipf", num_keys=77, write_fraction=0.25, value_size=24
        )
        assert (spec.num_keys, spec.write_fraction, spec.value_size) == \
            (77, 0.25, 24)

    def test_json_file_round_trip(self, tmp_path):
        import json

        spec = WorkloadSpec(distribution="zipf", num_keys=99,
                            zipf_exponent=1.7)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert parse_workload_spec(str(path)) == spec

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_workload_spec("pareto")


class TestSingleStreamGenerators:
    """The one-RNG entry points (``uniform_requests`` & co.)."""

    def test_uniform_count_bounds_and_seq(self):
        requests = uniform_requests(100, 50, rng=random.Random(1))
        assert len(requests) == 100
        assert all(0 <= r.key < 50 for r in requests)
        assert [r.seq for r in requests] == list(range(100))

    def test_uniform_write_fraction_and_value_size(self):
        requests = uniform_requests(
            400, 50, write_fraction=0.25, value_size=16, rng=random.Random(2)
        )
        writes = [r for r in requests if r.op is OpType.WRITE]
        assert 50 < len(writes) < 150
        assert all(len(r.value) == 16 for r in writes)

    def test_zipf_requests_and_sampler_bounds(self):
        assert len(zipf_requests(50, 100, rng=random.Random(7))) == 50
        sampler = ZipfSampler(100, rng=random.Random(6))
        assert all(0 <= sampler.sample() < 100 for _ in range(500))
        with pytest.raises(ValueError):
            ZipfSampler(0)

    def test_poisson_rate(self):
        times = list(poisson_arrivals(1000, 10.0, random.Random(8)))
        assert 9000 < len(times) < 11000
        assert all(0 <= t < 10.0 for t in times)
        assert times == sorted(times)

    def test_bursty_has_higher_peak_rate(self):
        times = list(bursty_arrivals(100, 5000, 10.0, rng=random.Random(9)))
        in_burst = sum(1 for t in times if (t % 1.0) < 0.2)
        assert in_burst > 3 * (len(times) - in_burst)


class TestTraceRecordEdges:
    def test_read_record_has_no_value(self):
        record = TraceRecord(t=0.5, op="read", key=3)
        obj = record.to_json_obj()
        assert "value" not in obj
        assert TraceRecord.from_json_obj(obj) == record

    def test_invalid_op_rejected(self):
        with pytest.raises(TraceFormatError):
            TraceRecord.from_json_obj({"t": 0, "op": "delete", "key": 1})

    def test_empty_trace_properties(self):
        trace = Trace(records=[])
        assert len(trace) == 0
        assert trace.duration == 0.0
        assert trace.mean_rate == 0.0
        assert trace.epoch_groups(0.1) == []
