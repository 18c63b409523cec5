"""Make the benchmark's tests import latpoly from this checkout's sources."""

import run

run.use_checkout_source()
