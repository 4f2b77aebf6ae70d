"""Device heterogeneity substrate.

Models the three aspects of AIoT device heterogeneity the paper evaluates
against:

* static capacity classes (weak / medium / strong devices and their mixing
  proportions, §4.1 "Device Heterogeneity Settings"),
* dynamic resource uncertainty (available capacity fluctuating from round
  to round, motivating AdaptiveFL's on-device adaptive pruning),
* the real test-bed of §4.5 (Raspberry Pi 4B / Jetson Nano / Jetson Xavier
  AGX), reproduced here as a latency + memory model driving a wall-clock
  simulation.

Import from the submodules; the package itself exports nothing.
"""
