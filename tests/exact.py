"""Exact rational-arithmetic reference for the tests.

A float is a dyadic rational, so :func:`exact` turns every float input into
a :class:`fractions.Fraction` without rounding, and everything after that is
exact. The float library can then be held to error bounds derived from the
float model (multiples of ``EPS``, times :func:`kappa` where a job sits far
below the queues it joins) instead of tuned constants.

Stdlib only, and slow: denominators grow with every water-fill, so keep to
n, m <= 12 and a few hundred cases per test.
"""

from fractions import Fraction

# float64 machine epsilon, the unit of every error bound below.
EPS = Fraction(1, 2**52)

# Bounds on the float library's error, derived from one rounding of eps per
# float operation, with kappa = max(1, Q/lambda) as :func:`kappa` states.
#
# SPLIT: a best response's fractions are within 4*kappa*eps. Each level
# q/mu is rounded once, by eps*Q/mu, and the fill is exact for the rounded
# levels up to a few roundings of the common level; a fraction is
# mu*(level - q/mu)/lambda, so it moves by a few eps*Q/lambda.
SPLIT = 4
# COST: a best response's cost is within 16*eps of the exact minimum,
# relative. The float split is optimal for levels off by one rounding each,
# where the cost is flat to first order along the simplex; what is left is
# the split's sum, off 1 by a few eps, and the rounding of <= 12 positive
# terms.
COST = 16
# ROW: the pass's rows are within 1*n*kappa*eps of the exact pass. Each
# update places its work with an error of a few eps*Q (SPLIT times
# lambda_k), and every later player sees that work in its queues; the fill
# passes a load error on to a split divided by lambda_i, so n updates give
# n*eps*Q/lambda_i = n*kappa*eps. Their rounding errors have mixed signs,
# which keeps the typical error far below the bound.
ROW = 1
# POTENTIAL, TOTALS: the pass's potential after each update is within
# (POTENTIAL*P + TOTALS*n*Lambda*S)*eps of the exact P = sum q_j^2/(2 mu_j),
# with q the exact queues, S = sum q_j/mu_j and Lambda the combined job. The
# first term is the evaluation, a sum of <= 12 positive squares, and the row
# errors, which move P only to second order since every row is a best
# response, flat to first order. The second term comes from the running
# server totals the pass takes P on: their rounding enters at first order,
# dP/dq_j = q_j/mu_j. The start sums n products per server, off by
# n*eps/2*Lambda; each update rounds its old and new work on the server,
# their difference and the new total, four values of at most Lambda, so
# 2*eps*Lambda per update and 5n/2*eps*Lambda per server after n of them.
POTENTIAL = 4
TOTALS = 3
# POOLED: the pass from uniform rows (static._from_uniform) keeps each
# queue in closed form from the last water-fill, base + slope*D with D the
# uniform work removed since, so rounding relative to the queue itself
# enters once per fill instead of once per update. Counting eps*q_j per
# rounding, a fill sees its queues off by the closed form's product and sum
# (2) and the slope alpha*mu_j (alpha = (m - |pool|)/mu(pool): m - 1 for
# the sum of at most m rates, one for the division, one for the product with
# mu_j: m + 1), removes the player's share (1) and sets the pool to mu_j
# times the level (the level's last addition and the product: 2). That is
# m + POOLED roundings per fill, with POOLED = 6, and every later queue
# inherits them through the level. D itself is a difference of two
# cumulative sums of at most n shares of at most Lambda/m, off by
# 2n*eps*Lambda/m, which the slope alpha*mu_j < m carries to at most
# 2n*eps*Lambda. So after F fills:
# - a potential is within ((POTENTIAL + 2*(m + POOLED)*F)*P
#   + TOTALS*n*Lambda*S)*eps: (m + POOLED)*F*eps*q_j on each queue moves P
#   by sum (q_j/mu_j)*(m + POOLED)*F*eps*q_j = 2*(m + POOLED)*F*eps*P, and
#   2n*eps*Lambda per server lies inside the TOTALS term;
# - a row is within ((m + POOLED)*F + 2n + SPLIT)*kappa*eps: a fill passes
#   its queues' error, at most ((m + POOLED)*F + 2n)*eps*Q, on to a split
#   divided by lambda_i, plus its own SPLIT. A row between fills is
#   (1 + alpha*mu_j)/m, whose exact value does not depend on the queues:
#   off by alpha's m + 1 roundings and three more, (m + 4)*eps, inside the
#   same bound since F >= 1.
POOLED = 6
# OPT: opt_lower_bound is within 16*kappa*eps of exact, relative, with
# kappa taken for the combined job. The same flat-optimum argument as COST.
OPT = 16
# GAP: is_nash's float gap of player i is below its exact gap by at most
# 2*(n + m + 3)*eps*lambda_i*L, with L the largest normalized queue. Each
# level sums n + 1 terms and divides once, so it is off by (n + 2)*eps*L;
# a level less the lowest one is off by (2n + 5)*eps*L. The gap weights
# these by work that sums to lambda_i, then rounds m products and sums them,
# (m + 1)*eps relative on a gap of at most lambda_i*L. A float row sums to 1
# within m*eps, and the exact improvement bound pays lambda_i*L for that
# excess. In all 2n + 2m + 6.
GAP = 2
# SOCIAL: social_cost is within 3*(n + m + 4)*eps of the exact social cost
# of the same float profile, relative. The queue ahead of a share is queued
# work (n + 1 sums) less the share, off by (n + 2)*eps*queued; since queued
# <= 2*(share/2 + ahead), each term moves by 2(n + 2)*eps relative, plus six
# roundings of its own; summing the n*m positive terms adds n + m more. In
# all 3n + m + 10, below 3*(n + m + 4).
SOCIAL = 3


def exact(values):
    """Floats (a sequence or an ndarray) as a list of exact Fractions."""
    return [Fraction(v) for v in values]


def of(inst):
    """An Instance's ``(lengths, rates, loads)`` as exact Fraction lists."""
    return exact(inst.job_lengths), exact(inst.service_rates), exact(inst.initial_loads)


def kappa(largest_queue, length):
    """max(1, Q/lambda): how far a job of ``length`` sits below the largest
    queue Q it can meet. Rounding a level of that queue moves the job's
    split by about eps * Q/lambda, so float error bounds scale with it."""
    return max(Fraction(1), Fraction(largest_queue) / Fraction(length))


def gap(computed, expected):
    """Largest exact distance between float results and exact values."""
    return max(abs(Fraction(c) - e) for c, e in zip(computed, expected))


def water_fill(total, rates, levels):
    """Pour ``total`` over channels in ascending level order (ties by index)
    until the next channel's level meets the common level of the filled
    prefix. Returns the per-channel amounts."""
    order = sorted(range(len(rates)), key=lambda j: levels[j])
    cum_rate = cum_load = Fraction(0)
    for k, j in enumerate(order):
        cum_rate += rates[j]
        cum_load += rates[j] * levels[j]
        level = (total + cum_load) / cum_rate
        if k + 1 == len(order) or levels[order[k + 1]] >= level:
            break
    amounts = [Fraction(0)] * len(rates)
    for j in order[: k + 1]:
        amounts[j] = rates[j] * (level - levels[j])
    return amounts


def respond(length, rates, loads):
    """The best-response fractions of a job of ``length`` against ``loads``."""
    amounts = water_fill(length, rates, [q / r for q, r in zip(loads, rates)])
    return [a / length for a in amounts]


def wait(work, loads, rates):
    """Average wait of ``work`` per server joining queues holding ``loads``."""
    return sum(w * (w / (2 * r) + q / r) for w, q, r in zip(work, loads, rates))


def potential(queued, rates):
    """The potential of per-server queues holding ``queued``."""
    return sum(q * q / (2 * r) for q, r in zip(queued, rates))


def queued(lengths, loads, matrix):
    """Per-server work: the loads plus every player's share."""
    return [
        q + sum(length * row[j] for length, row in zip(lengths, matrix))
        for j, q in enumerate(loads)
    ]


def run_pass(lengths, rates, loads, matrix, order):
    """The in-turn pass from scratch: each update rebuilds the other players'
    work and the queues are summed afresh after it. ``matrix`` is the start,
    of floats or Fractions. Returns ``(matrix, queues)``, the queues after
    each update."""
    matrix = [exact(row) for row in matrix]
    queues = []
    for i in order:
        others = [row if k != i else [0] * len(rates) for k, row in enumerate(matrix)]
        matrix[i] = respond(lengths[i], rates, queued(lengths, loads, others))
        queues.append(queued(lengths, loads, matrix))
    return matrix, queues


def player_costs(lengths, rates, loads, matrix):
    """Each player's wait behind the loads and the others' work."""
    total = queued(lengths, loads, matrix)
    own = [[length * x for x in row] for length, row in zip(lengths, matrix)]
    return [wait(w, [q - x for q, x in zip(total, w)], rates) for w in own]


def social_cost(lengths, rates, loads, matrix):
    """Every player's cost, summed."""
    return sum(player_costs(lengths, rates, loads, matrix))


def combined_fill(lengths, rates, loads):
    """The queues after the combined job is water-filled over ``loads``."""
    amounts = water_fill(sum(lengths), rates, [q / r for q, r in zip(loads, rates)])
    return [q + a for q, a in zip(loads, amounts)]


def drain(loads, incoming, rates):
    """One drain step: add the incoming work, serve one step, clamp at 0."""
    return [max(q + w - r, Fraction(0)) for q, w, r in zip(loads, incoming, rates)]


def opt_lower_bound(lengths, rates, loads):
    """The relaxed optimum: the combined job water-filled over the backlogs."""
    amounts = water_fill(sum(lengths), rates, [q / r for q, r in zip(loads, rates)])
    return sum((a * a / 2 + q * a) / r for a, q, r in zip(amounts, loads, rates))


def response_errors(length, rates, loads, fractions):
    """A float best response against the exact one, as ``(split, cost)``:
    its largest fraction error in units of kappa*eps, with Q the largest
    queue max(loads) + length it can meet, and the relative gap of its exact
    cost to the exact minimum in units of eps."""
    length, rates, loads = Fraction(length), exact(rates), exact(loads)
    best = respond(length, rates, loads)
    least = wait([length * x for x in best], loads, rates)
    cost = wait([length * Fraction(x) for x in fractions], loads, rates)
    split = gap(fractions, best) / (kappa(max(loads) + length, length) * EPS)
    return split, abs(cost - least) / least / EPS
