import os
import sys

from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
        HealthCheck.filter_too_much,
    ],
)
# `pytest --hypothesis-profile=thorough` loads this one instead
settings.register_profile("thorough", settings.get_profile("deterministic"), max_examples=2000)
settings.load_profile("deterministic")
