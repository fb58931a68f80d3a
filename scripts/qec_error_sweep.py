#!/usr/bin/env python3
"""Sweep the per-pulse Pauli error probability and report logical error rates,
sampled by the memory experiment and exact.

Usage: python scripts/qec_error_sweep.py [--cycles N] [--seed S]
"""
import argparse

import numpy as np

from qdotsim.qec import _classes_by_weight, _pauli_class, memory_experiment, weight_distribution


def run_point(p: float, cycles: int, seed: int, pulses: int = 500) -> float:
    rng = np.random.default_rng([seed, int(p * 1e9)])
    return memory_experiment(cycles, p, rng, pulses)["failures"] / cycles


def exact_rate(p: float, pulses: int = 500) -> float:
    """Sum over weights of P(weight) times the failing share of that weight's
    equally likely classes."""
    shares = [sum(_pauli_class(codes)[1] for codes in group) / len(group)
              for group, _ in _classes_by_weight()]
    return float(weight_distribution(pulses, p) @ shares)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cycles", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    print(f"{'p_per_pulse':>12}  {'expected_errs':>13}  {'logical_rate':>12}  {'exact_rate':>12}")
    for p in (0.0, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3):
        rate = run_point(p, args.cycles, args.seed)
        print(f"{p:>12.1e}  {500 * p:>13.3f}  {rate:>12.4e}  {exact_rate(p):>12.4e}")


if __name__ == "__main__":
    main()
