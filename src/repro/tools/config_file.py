"""Deployment specifications as JSON files.

Operators describe a deployment (or planner SLOs) declaratively::

    {
        "deployment": {
            "num_load_balancers": 3,
            "num_suborams": 15,
            "value_size": 160,
            "security_parameter": 128,
            "epoch_duration": 0.2
        },
        "slo": {
            "num_objects": 2000000,
            "min_throughput": 90000,
            "max_latency": 0.5
        }
    }

``load_spec`` validates and returns (:class:`SnoopyConfig`, slo dict);
``python -m repro plan`` accepts the same fields.  Each deployment field
must have its JSON type — an integer (not ``true``/``false``) for the
counts, ``value_size`` and ``security_parameter``, a number for
``epoch_duration`` and a spec string such as ``"thread:4"`` for
``execution_backend`` — or loading fails with a
:class:`~repro.errors.ConfigurationError` naming the file and field.
"""

from __future__ import annotations

import json
import pathlib
from typing import Optional, Tuple

from repro.core.config import SnoopyConfig
from repro.errors import ConfigurationError

#: Each deployment field with its JSON type(s) and how an error names it.
_DEPLOYMENT_FIELDS = {
    "num_load_balancers": (int, "an integer"),
    "num_suborams": (int, "an integer"),
    "value_size": (int, "an integer"),
    "security_parameter": (int, "an integer"),
    "epoch_duration": ((int, float), "a number"),
    "execution_backend": (str, "a string"),
}
_SLO_FIELDS = {"num_objects", "min_throughput", "max_latency", "object_size",
               "max_monthly_cost"}


def load_spec(path) -> Tuple[Optional[SnoopyConfig], dict]:
    """Parse a deployment spec file; returns (config or None, slo dict)."""
    text = pathlib.Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ConfigurationError(f"{path}: top level must be an object")

    unknown = set(document) - {"deployment", "slo"}
    if unknown:
        raise ConfigurationError(f"{path}: unknown sections {sorted(unknown)}")

    config = None
    if "deployment" in document:
        section = document["deployment"]
        if not isinstance(section, dict):
            raise ConfigurationError(f"{path}: deployment must be an object")
        bad = set(section) - set(_DEPLOYMENT_FIELDS)
        if bad:
            raise ConfigurationError(
                f"{path}: unknown deployment fields {sorted(bad)}"
            )
        for name, value in section.items():
            types, expected = _DEPLOYMENT_FIELDS[name]
            # JSON true/false load as bool, which Python counts as int.
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigurationError(
                    f"{path}: deployment field {name!r} must be "
                    f"{expected}, got {value!r}"
                )
        config = SnoopyConfig(**section)

    slo = {}
    if "slo" in document:
        slo = dict(document["slo"])
        bad = set(slo) - _SLO_FIELDS
        if bad:
            raise ConfigurationError(f"{path}: unknown slo fields {sorted(bad)}")
    return config, slo


def dump_spec(config: SnoopyConfig, slo: Optional[dict] = None) -> str:
    """Serialize a deployment spec to JSON text."""
    document = {
        "deployment": {
            "num_load_balancers": config.num_load_balancers,
            "num_suborams": config.num_suborams,
            "value_size": config.value_size,
            "security_parameter": config.security_parameter,
            "epoch_duration": config.epoch_duration,
            "execution_backend": config.execution_backend,
        }
    }
    if slo:
        document["slo"] = slo
    return json.dumps(document, indent=2)
