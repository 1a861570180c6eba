"""Shared generators for randomized tests.

Instances are drawn so that solo SNR at full power spans roughly 2..42 dB and
cross gains sit 3..25 dB below the victim's desired gain, which yields a
healthy mix of feasible and infeasible rate vectors at the bundled radio
parameters.

Tests count the library's work through its own counts: the ``checks`` and
``evaluations`` of an ``AllocationResult``, ``SubsetPricer.counts()`` and
the ``counts`` of each ``per_seed`` record; and they read why a price
failed from a result's ``reason``. A test records calls with a
``mock.Mock(wraps=...)`` spy only for what those counts do not hold: the
arguments of a call, the kind of pricer it got, or a call that no count
covers, such as ``sna_assign``'s. A test writes its own wrapper only to
read results, assert inside the call or inject a fault.

Each plain-definition reference is defined once, here: among them
``frozen_ladder_solos``, which ``solo_reason`` reads, and
``frozen_continuous_optimal``, which walks ``bisection_cell``.
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st

from ratesched import (
    AllocationResult,
    ExperimentResults,
    FixedPricer,
    Frame,
    generate_topology,
    realize_channel,
    GainMatrix,
    NodeSpec,
    NumericalError,
    RadioConfig,
    ValidationError,
    Verdict,
    brute_force_optimal,
    check_targets,
    compute_metrics,
    disc4_table,
    disc8_table,
    exhaustive_fits,
    exhaustive_schedule,
    mla_allocate,
    mua_allocate,
    schedule,
    sna_assign,
    validate_instance,
)

from ratesched.experiment import subseed

TABLE1_RADIO = RadioConfig(p_max=0.25, noise_power=1e-8, bandwidth_hz=1e8)


def gain_array(gains):
    """The entries of ``gains`` as a C-ordered float array, ``g[l, k]`` being
    the gain from link l to link k; a ``GainMatrix`` keeps only ``cols``."""
    return np.array(gains.cols).T.copy()


def random_gains(rng, n, radio=TABLE1_RADIO, snr_db=(2.0, 42.0), iso_db=(3.0, 25.0)):
    """Gain matrix with controlled solo SNR and interference isolation."""
    solo = rng.uniform(*snr_db, size=n)
    gii = 10.0 ** (solo / 10.0) * radio.noise_power / radio.p_max
    g = np.empty((n, n))
    for l in range(n):
        for k in range(n):
            if l == k:
                g[l, k] = gii[k]
            else:
                g[l, k] = gii[k] * 10.0 ** (-rng.uniform(*iso_db) / 10.0)
    return GainMatrix(g)


def random_nodes(
    rng,
    n,
    table,
    periods=(1,),
    controllers=None,
    tight_delay_prob=0.0,
    binding_energy_prob=0.0,
    loose_delay=1e-3,
):
    """Nodes with packets from {50, 100} bits and optional tight constraints."""
    nodes = []
    for i in range(n):
        bits = float(rng.choice([50.0, 100.0]))
        delay = loose_delay
        if rng.random() < tight_delay_prob:
            level = int(rng.integers(0, table.num_levels))
            delay = bits / table.rate(level) * rng.uniform(0.9, 1.5)
        energy = math.inf
        if rng.random() < binding_energy_prob:
            energy = TABLE1_RADIO.p_max * bits / table.rate(0) * 10.0 ** rng.uniform(-2.0, 0.0)
        ctrl = i if controllers is None else controllers[i]
        nodes.append(
            NodeSpec(
                id=i,
                controller_id=ctrl,
                packet_bits=bits,
                period=int(rng.choice(periods)),
                delay_bound=delay,
                energy_budget=energy,
            )
        )
    return nodes


def random_instance(
    rng, n, table, radio=TABLE1_RADIO, snr_db=(2.0, 42.0), iso_db=(3.0, 25.0), **node_kwargs
):
    """(nodes, gains) pair over Table-1 style radio parameters."""
    nodes = random_nodes(rng, n, table, **node_kwargs)
    gains = random_gains(rng, n, radio, snr_db=snr_db, iso_db=iso_db)
    return nodes, gains


def four_node_fixture():
    """Two-subframe frame with one fast node and three slow ones, priced so
    that only the two middle nodes can share a slot (0.30 ms jointly)."""
    ms = 1e-3
    periods = {1: 1, 2: 2, 3: 2, 4: 2}
    controllers = {1: 0, 2: 0, 3: 1, 4: 2}
    nodes = [
        NodeSpec(
            id=i,
            controller_id=controllers[i],
            packet_bits=100.0,
            period=periods[i],
            delay_bound=1e-3,
        )
        for i in sorted(periods)
    ]
    inst = validate_instance(nodes)
    prices = {
        (1,): 0.15 * ms,
        (2,): 0.20 * ms,
        (3,): 0.25 * ms,
        (4,): 0.30 * ms,
        (2, 3): 0.30 * ms,
    }
    return inst, FixedPricer(inst, prices)


def reference_schedule(pricer, strategy):
    """``scheduling.schedule`` as a plain definition: the strategy's
    allocator runs on every (period, offset) population of ``sna_assign``'s
    offsets, one-node ones included, and each subframe m scans every
    population, in (period, offset) order, for those of a period s at
    offset m mod s."""
    inst = pricer.inst
    allocate = {"sna-mla": mla_allocate, "sna-mua": mua_allocate}[strategy]
    assignments = sna_assign(pricer)
    populations = {}
    for i in sorted(assignments):
        populations.setdefault((inst.periods[i], assignments[i]), []).append(i)
    rows = [
        (s, off, allocate(members, pricer)) for (s, off), members in sorted(populations.items())
    ]
    groups = tuple(
        tuple(group for s, off, groups in rows if m % s == off for group in groups)
        for m in range(inst.subframe_count)
    )
    frame = Frame(inst.subframe_count, assignments, groups)
    return frame, compute_metrics(frame)


def link_sinrs(cols, powers, noise):
    """Each link's SINR at ``powers``, computed afresh in Python floats: its
    own received power over the noise plus the interference summed over the
    other links only. ``cols[k][l]`` is the gain from link l to link k's
    controller, as in ``GainMatrix.cols``."""
    return [
        powers[k] * col[k]
        / (noise + math.fsum(p * g for l, (p, g) in enumerate(zip(powers, col)) if l != k))
        for k, col in enumerate(cols)
    ]


def assert_group_certificate(pricer, ids, alloc):
    """Check one group of a gain-backed pricer's frame from first principles,
    sharing no code with the feasibility kernel: each member's SINR at the
    reported powers meets its rate's target, the ladder threshold of its
    rate or 2**(rate/W) - 1 under ``cont``, to a relative 1e-12; each power
    is at most p_max, each energy p * t within its budget and each time
    within its delay bound; and the slot is the longest time."""
    radio, inst = pricer.radio, pricer.inst
    idx = [inst.position[i] for i in ids]
    cols = [[pricer.gains.cols[k][l] for l in idx] for k in idx]
    table = getattr(pricer, "table", None)
    thresholds = {} if table is None else {rate: th for th, rate in table.levels}
    sinrs = link_sinrs(cols, alloc.powers, radio.noise_power)
    for i, sinr, rate, p, t in zip(ids, sinrs, alloc.rates, alloc.powers, alloc.times):
        node = inst.node(i)
        target = thresholds[rate] if table else 2 ** (rate / radio.bandwidth_hz) - 1
        assert abs(sinr - target) <= 1e-12 * target, (ids, sinr, target)
        assert p <= radio.p_max and p * t <= node.energy_budget and t <= node.delay_bound
    assert len(alloc.times) == len(ids) and alloc.slot == max(alloc.times)


def random_rate_indices(rng, n, num_levels):
    return [int(q) for q in rng.integers(0, num_levels, size=n)]


def outcome(pricer, *args):
    """A pricer's result, or the type of the error it raised."""
    try:
        return pricer(*args)
    except (ValidationError, NumericalError) as exc:
        return type(exc)


# Bandwidths that put the slots near 1e-300 and 1e+295 s as well as at the
# Table-1 scale; tables and delays scale with them.
BANDWIDTHS = (1e8, 1e300, 1e-292)
TABLES = {(name, w): make(w) for w in BANDWIDTHS
          for name, make in (("disc4", disc4_table), ("disc8", disc8_table))}


@st.composite
def pricing_instances(draw, sizes=st.integers(1, 5)):
    """A subset of 1..5 links (as many as ``sizes`` draws) of a 5-link
    instance, with its submatrix, table and radio: disc4 or disc8, binding
    energy budgets, strong interference (rho near 1) and slot scales near
    both ends of the float range."""
    bandwidth = draw(st.sampled_from(BANDWIDTHS))
    table = TABLES[draw(st.sampled_from(["disc4", "disc8"])), bandwidth]
    radio = RadioConfig(
        p_max=TABLE1_RADIO.p_max, noise_power=TABLE1_RADIO.noise_power,
        bandwidth_hz=bandwidth,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(sizes)
    nodes, gains = random_instance(
        rng, 5, table, radio=radio,
        iso_db=draw(st.sampled_from([(3.0, 25.0), (0.5, 8.0)])),
        tight_delay_prob=draw(st.sampled_from([0.0, 0.3])),
        binding_energy_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        loose_delay=draw(st.sampled_from([1e-3, 2e-6])) * 1e8 / bandwidth,
    )
    idx = sorted(int(i) for i in rng.choice(5, size=k, replace=False))
    return [nodes[i] for i in idx], gains.sub(idx), table, radio


def draw_instance(cfg, n, density, point, k):
    """Nodes and gain matrix of one seed of a sweep, drawn alone through
    ``generate_topology``, ``realize_channel`` and ``rng.choice``: the oracle
    of ``experiment._draw_seeds``. Raises NumericalError where that yields
    one."""
    topo = generate_topology(n, cfg.n_controllers, density, subseed(cfg.master_seed, point, k, 0))
    chan = realize_channel(topo, seed=subseed(cfg.master_seed, point, k, 1))
    rng = np.random.default_rng(subseed(cfg.master_seed, point, k, 2))
    drawn = [int(p) for p in rng.choice(cfg.period_set, size=n)]
    packets = [float(b) for b in rng.choice(cfg.packet_bits_set, size=n)]
    min_p = min(drawn)
    delay, energy = cfg._budget(min_p)
    nodes = [
        NodeSpec(
            id=i,
            controller_id=topo.controller_of[i],
            packet_bits=packets[i],
            period=drawn[i] // min_p,
            delay_bound=delay,
            energy_budget=energy,
        )
        for i in range(n)
    ]
    return nodes, chan.link_gains(range(n))


@np.errstate(over="ignore")
def frozen_continuous_optimal(nodes, gains, radio):
    """The plain slot bisection, frozen as the reference for
    ``continuous_optimal``: it probes every midpoint. It returns infeasible
    for a t_lo = 0 pair with an infeasible t_hi and for a t_lo = inf solo,
    where ``continuous_optimal`` raises NumericalError."""
    nodes = list(nodes)
    k = len(nodes)
    bits = np.array([n.packet_bits for n in nodes])
    delays = [n.delay_bound for n in nodes]
    energies = [n.energy_budget for n in nodes]
    snr_cap = radio.p_max * np.diag(gain_array(gains)) / radio.noise_power

    def targets_at(t):
        return np.expm1(bits * (math.log(2.0) / (t * radio.bandwidth_hz)))

    def probe(t):
        return check_targets(gains, targets_at(t).tolist(), radio, [t] * k, delays, energies)

    def allocation_at(t, report):
        return AllocationResult(
            feasible=True, slot=t, rates=tuple(b / t for b in bits),
            powers=report.min_powers, times=(t,) * k,
        )

    t_hi = float(min(delays))
    t_lo = float(np.max(bits / (radio.bandwidth_hz * np.log2(1.0 + snr_cap))))
    if t_lo > t_hi:
        return AllocationResult.infeasible()
    hi_targets = targets_at(t_hi)
    if not np.all(hi_targets > 0):
        raise NumericalError(f"capacity targets underflow to 0 at slot {t_hi}")
    hi_report = check_targets(gains, hi_targets.tolist(), radio, [t_hi] * k, delays, energies)
    if not hi_report.feasible:
        return AllocationResult.infeasible()
    if not t_lo > 0:
        raise NumericalError("interference-free slot bound underflows to 0")
    lo_report = probe(t_lo)
    if lo_report.feasible:
        return allocation_at(t_lo, lo_report)
    reports = {t_hi: hi_report}

    def feasible(mid):
        reports[mid] = probe(mid)
        return reports[mid].feasible

    _, hi = bisection_cell(t_lo, t_hi, feasible)
    return allocation_at(hi, reports[hi])


def frozen_ladder_solos(nodes, gains, table, radio):
    """The per-node loop ``ladder_solos`` ran before the block pass, a link
    with no record given the verdict of its solo test's first failing term."""
    noise, p_max = radio.noise_power, radio.p_max
    records = []
    for i, (n, col) in enumerate(zip(nodes, gains.cols)):
        times = [n.packet_bits / r for _, r in table.levels]
        lowest = table.lowest_level_within(n.packet_bits, n.delay_bound)
        powers, verdict = [], Verdict.INFEASIBLE_DELAY
        if lowest is not None:
            for q in range(lowest, table.num_levels):
                u = table.threshold(q) * noise / col[i]
                if not u <= p_max:
                    verdict = Verdict.INFEASIBLE_MAX_POWER
                    break
                if not times[q] * u <= n.energy_budget:
                    verdict = Verdict.INFEASIBLE_ENERGY
                    break
                powers.append(u)
        if not powers:
            records.append(verdict)
            continue
        ceiling = lowest + len(powers) - 1
        t = times[ceiling]
        solo = AllocationResult(True, t, (table.rate(ceiling),), (powers[-1],), (t,))
        records.append((times, lowest, ceiling, solo if powers[0] > 0 else None))
    return records


def solo_reason(model, node, own, radio):
    """Why ``node``, alone on its own gain ``own``, fails under ``model``,
    from plain definitions, as a ``Verdict`` name: for a ladder, the verdict
    in its ``frozen_ladder_solos`` record; for ``cont``, the check's verdict
    at the delay bound."""
    if model == "cont":
        t = node.delay_bound
        target = float(np.expm1(node.packet_bits * (math.log(2.0) / (t * radio.bandwidth_hz))))
        report = check_targets(GainMatrix([[own]]), [target], radio, [t], [t], [node.energy_budget])
        return report.verdict.name
    table = {"disc4": disc4_table, "disc8": disc8_table}[model](radio.bandwidth_hz)
    (record,) = frozen_ladder_solos([node], GainMatrix([[own]]), table, radio)
    assert isinstance(record, Verdict), record
    return record.name


def oracle_seed(cfg, n, density, point, k):
    """One seed's outcome under ``run_experiment``'s rules, from plain
    definitions: ``(max_active, reference, reference_kind)``, or ``(model,
    node, reason)`` for the model that drops the seed, the first node
    infeasible alone under it and its ``solo_reason``, or ``"numerical"``.

    The seed is drawn alone by ``draw_instance``. Each needed model (the
    configured ones, and ``cont`` for the reference) prices every
    controller-distinct subset with no cap and no solo records: ``cont`` by
    ``frozen_continuous_optimal``, a ladder by ``brute_force_optimal``,
    which takes at most 4 links and 8 levels. The models price their solos
    in ``_run_seed``'s order, table models in config order and then
    ``cont``, and the first with an infeasible solo drops the seed; a draw
    or price that raises NumericalError drops it as ``"numerical"``. A kept
    seed's prices, a ``FixedPricer`` per model, go to ``schedule`` and
    ``exhaustive_schedule``, which share ``SubsetPricer.group``'s cap rule
    with the library."""
    ladders = {"disc4": disc4_table, "disc8": disc8_table}
    needed = [m for m in cfg.rate_models if m != "cont"] + ["cont"]

    def price(model, idx):
        nodes, sub = [inst.nodes[i] for i in idx], gains.sub(list(idx))
        if model == "cont":
            return frozen_continuous_optimal(nodes, sub, cfg.radio)
        return brute_force_optimal(nodes, sub, ladders[model](cfg.radio.bandwidth_hz), cfg.radio)

    try:
        nodes, gains = draw_instance(cfg, n, density, point, k)
        inst = validate_instance(nodes)
        prices = {m: {} for m in needed}
        for model in needed:
            for i in range(n):
                prices[model][(i,)] = price(model, (i,))
            for i in range(n):
                if not prices[model][(i,)].feasible:
                    return model, i, solo_reason(model, nodes[i], gains.cols[i][i], cfg.radio)
        ctrl = [node.controller_id for node in inst.nodes]
        for size in range(2, n + 1):
            for idx in itertools.combinations(range(n), size):
                if len({ctrl[i] for i in idx}) == size:
                    for model in needed:
                        prices[model][idx] = price(model, idx)
    except NumericalError:
        return "numerical"
    pricers = {
        model: FixedPricer(inst, {ids: res.slot for ids, res in table.items() if res.feasible})
        for model, table in prices.items()
    }
    max_active = {
        f"{s}/{m}": schedule(pricers[m], s)[1].max_active
        for s in cfg.strategies for m in cfg.rate_models
    }
    if exhaustive_fits(inst):
        return max_active, exhaustive_schedule(pricers["cont"])[1].max_active, "exhaustive"
    reference = min(schedule(pricers["cont"], s)[1].max_active for s in cfg.strategies)
    return max_active, reference, "heuristic"


def oracle_sweep(cfg):
    """``run_experiment(cfg)``'s rows and ``per_seed`` from ``oracle_seed``,
    averaged in plain numpy; its ``reference_counts`` are left empty, and
    so are its records' ``counts``, which the oracle's plan of pricing
    does not share."""
    sweep_var, values = cfg.sweep()
    rows, per_seed = [], []
    for point, value in enumerate(values):
        n, density = (value, cfg.density) if sweep_var == "n_sensors" else (cfg.n_sensors, value)
        records = []
        for k in range(cfg.seeds):
            record = {"sweep_var": sweep_var, "value": value, "seed_index": k, "dropped": None}
            outcome = oracle_seed(cfg, int(n), float(density), point, k)
            if outcome == "numerical":
                record["dropped"] = outcome
            elif isinstance(outcome[0], str):
                record["dropped"], record["node"], record["reason"] = outcome
            else:
                max_active, record["reference"], record["reference_kind"] = outcome
                record["max_active"] = max_active
            records.append(record)
        per_seed += records
        kept = [r for r in records if r["dropped"] is None]
        for strategy in cfg.strategies:
            for model in cfg.rate_models:
                raws = [r["max_active"][f"{strategy}/{model}"] for r in kept]
                norms = [t / r["reference"] for t, r in zip(raws, kept)]
                rows.append({
                    "sweep_var": sweep_var,
                    "value": value,
                    "strategy": strategy,
                    "rate_model": model,
                    "seed_count": len(kept),
                    "infeasible_count": len(records) - len(kept),
                    "mean_norm": float(np.mean(norms)) if norms else math.nan,
                    "std_norm": float(np.std(norms)) if norms else math.nan,
                    "mean_max_active_s": float(np.mean(raws)) if raws else math.nan,
                })
    return ExperimentResults(rows, {}, per_seed)


def bisection_cell(t_lo, t_hi, feasible):
    """The final cell (lo, hi) of the plain slot bisection from (t_lo, t_hi)
    under the verdicts ``feasible(mid)``."""
    lo, hi = t_lo, t_hi
    while hi - lo > 1e-6 * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def log_uniform(draw, lo, hi):
    """10 to the power of a float drawn from [lo, hi]."""
    return 10.0 ** draw(st.floats(lo, hi))


@st.composite
def near_singular_systems(draw, sides=(-1.0, 1.0), sizes=st.integers(2, 5)):
    """Two to five links (as many as ``sizes`` draws) whose interference
    matrix F is a random nonnegative matrix scaled so that its spectral
    radius lies within 1e-9 of 1 but at least 1e-12 away from it, on either
    side (below 1 for ``sides`` (-1,))."""
    n = draw(sizes)
    own = [log_uniform(draw, -9.0, -3.0) for _ in range(n)]
    targets = np.array([log_uniform(draw, -2.0, 4.0) for _ in range(n)])
    f = np.array(
        [[0.0 if i == j else log_uniform(draw, -4.0, 1.0) for j in range(n)] for i in range(n)]
    )
    gap = log_uniform(draw, -12.0, -9.0) * draw(st.sampled_from(sides))
    f *= (1.0 + gap) / np.max(np.abs(np.linalg.eigvals(f)))
    # F[i, j] = target_i * g[j, i] / g[i, i]
    g = [[own[l] if l == k else f[k, l] * own[k] / targets[k] for k in range(n)] for l in range(n)]
    return GainMatrix(g), targets


@st.composite
def near_singular_links(draw, sizes=st.integers(2, 4)):
    """Two to five links of ``near_singular_systems`` (as many as ``sizes``
    draws) priced on a continuous slot: packets whose capacity targets at
    1 us are the system's SINR targets, where rho(F) lies within 1e-9 of 1,
    and a noise power that puts the links' interference-free powers there
    at 1e-12..1e-3 of p_max, so that the slot boundary t* sits where 1 - rho
    is about that small. Delay bounds are loose or just above 1 us, energy
    budgets loose or binding. Returns ``(nodes, gains, radio)``."""
    gains, targets = draw(near_singular_systems(sizes=sizes))
    t0, p_max = 1e-6, TABLE1_RADIO.p_max
    width = TABLE1_RADIO.bandwidth_hz
    share = log_uniform(draw, -12.0, -3.0)
    noise = share * p_max * min(col[k] / x for k, (col, x) in enumerate(zip(gains.cols, targets)))
    radio = RadioConfig(p_max=p_max, noise_power=noise, bandwidth_hz=width)
    delay = t0 * draw(st.sampled_from([1e3, 1.5, 3.0]))
    budgets = st.sampled_from([math.inf, p_max * t0 * log_uniform(draw, 0.0, 1.0)])
    nodes = [
        NodeSpec(
            id=k,
            controller_id=k,
            packet_bits=float(np.log2(1.0 + x)) * t0 * width,
            period=1,
            delay_bound=delay,
            energy_budget=draw(budgets),
        )
        for k, x in enumerate(targets)
    ]
    return nodes, gains, radio
