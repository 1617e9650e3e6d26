"""Acceptance suite: one test per shipping criterion.

Each test prints (and records for the end-of-run summary) a single
verdict line with the measured numbers at the stated tolerances.  The
desk-scale training run in criterion 5 and the doubled-resolution
simulation in criterion 3 dominate the runtime; expect the whole file
to take on the order of ten minutes.
"""

import struct
import time

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from learnedbp.fileio import read_patb, write_patb, write_pgm
from learnedbp.forward import ForwardOperator, SensorData
from learnedbp.geometry import ImageGrid, Scenario, TimeGrid, make_detectors, make_scenario
from learnedbp.metrics import evaluate, rel_error
from learnedbp.phantoms import Image, PhantomParams, generate_phantom
from learnedbp.recon import BackprojectionOperator, WeightTensor
from learnedbp.training import TrainConfig, grad, loss, sample_loss, sgd_train


def simulate_pairs(scenario, seeds, chunk=25):
    """(SensorData, Image) pairs for generated phantoms, simulated in chunks."""
    op = ForwardOperator(scenario)
    phantoms = [generate_phantom(PhantomParams(seed=s), scenario.grid) for s in seeds]
    pairs = []
    for lo in range(0, len(phantoms), chunk):
        block = phantoms[lo : lo + chunk]
        pairs.extend(zip(op.simulate_batch(block), block))
    return pairs


def small_random_problem(seed):
    """An 8x8 grid, 3 detectors, 16 time samples, with random data, truth
    and weights; small enough for dense finite differencing.

    The truth is the reconstruction minus a random offset bounded away
    from zero, so no pixel residual degenerates: at a near-zero residual
    the gradient entry vanishes while the loss keeps curvature, and the
    difference quotient is then dominated by its own truncation error
    rather than by the quantity under test."""
    rng = np.random.default_rng(seed)
    grid = ImageGrid(n=8)
    detectors = make_detectors("B_sparse", 3, 1.0)
    time_grid = TimeGrid(n_t=16, t_final=3.0)
    op = BackprojectionOperator(grid, detectors, time_grid)
    data = SensorData(rng.standard_normal((16, 3)), time_grid, detectors)
    weights = WeightTensor(rng.uniform(0.5, 1.5, (8, 8, 3)), grid)
    offset = rng.uniform(0.5, 1.5, (8, 8)) * rng.choice([-1.0, 1.0], (8, 8))
    truth = Image(grid, op.apply(weights, data).values - offset)
    return op, data, truth, weights


# ---------------------------------------------------------------------------
# 1. closed-form gradient vs central finite differences


def test_1_gradient_matches_finite_differences(acceptance_record):
    t0 = time.monotonic()
    step = 1e-4
    worst = 0.0
    checked = total = 0
    for instance in range(10):
        op, data, truth, weights = small_random_problem(9000 + instance)
        g = grad(weights, (data, truth), op)
        total += g.size
        for flat in range(g.size):
            idx = np.unravel_index(flat, g.shape)
            if abs(g[idx]) <= 1e-8:
                continue
            bumped = weights.values.copy()
            bumped[idx] += step
            hi = sample_loss(WeightTensor(bumped, weights.grid), data, truth, op)
            bumped[idx] -= 2 * step
            lo = sample_loss(WeightTensor(bumped, weights.grid), data, truth, op)
            fd = (hi - lo) / (2 * step)
            worst = max(worst, abs(fd - g[idx]) / abs(g[idx]))
            checked += 1
    elapsed = time.monotonic() - t0

    ok = worst < 1e-5 and checked > 0.9 * total and elapsed < 60.0
    acceptance_record(
        f"1 gradient vs finite differences: {'PASS' if ok else 'FAIL'} "
        f"(10 instances, {checked}/{total} entries, worst rel {worst:.2e}, {elapsed:.1f}s)"
    )
    assert worst < 1e-5
    assert checked > 0.9 * total
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 2. forward solver vs an independent fine-quadrature oracle

RADIAL_FACTOR = 10  # oracle radial table spacing dt/40 vs the solver's dt/4
ANGULAR_FACTOR = 10  # oracle angle count 40n vs the solver's 4n
N_PSI = 4096

DISC_CENTER = (0.15, -0.2)
DISC_RADIUS = 0.3


def disc_image(grid):
    centers = grid.pixel_centers()
    dist = np.hypot(centers[:, :, 0] - DISC_CENTER[0], centers[:, :, 1] - DISC_CENTER[1])
    return Image(grid, np.where(dist <= DISC_RADIUS, 1.0, 0.0))


def oracle_mean_table(img, detector, normal, radii, n_ang, directivity, block=256):
    """Average over angles of f(s + r*omega)*phi(omega) with bilinear f.

    Deliberately shares nothing with the solver: midpoint angle nodes,
    scipy's interpolator, and a plain weighted mean.
    """
    grid = img.grid
    h = grid.spacing
    angles = 2.0 * np.pi * (np.arange(n_ang) + 0.5) / n_ang
    omega = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if directivity:
        c = -(omega @ np.asarray(normal))
        phi = np.where(c > 0.0, c, 0.0) ** 2
    else:
        phi = np.ones(n_ang)

    total = np.zeros(radii.size)
    for lo in range(0, n_ang, block):
        w = omega[lo : lo + block]
        pts_x = detector[0] + radii[None, :] * w[:, :1]
        pts_y = detector[1] + radii[None, :] * w[:, 1:]
        rows = (grid.extent - pts_y) / h - 0.5
        cols = (pts_x + grid.extent) / h - 0.5
        vals = map_coordinates(
            img.values, [rows.ravel(), cols.ravel()], order=1, mode="constant", cval=0.0
        ).reshape(pts_x.shape)
        total += phi[lo : lo + block] @ vals
    return total / n_ang


def oracle_waveform(img, scenario, det_index):
    """Brute-force waveform: the singular time integral is computed with
    the substitution r = c*t*sin(psi), which removes the square-root
    singularity, then differentiated with np.gradient."""
    time_grid = scenario.time
    c = scenario.sound_speed
    t = time_grid.samples()
    pos = scenario.detectors.positions[det_index]
    normal = scenario.detectors.normals[det_index]

    n_fine = RADIAL_FACTOR * 4 * time_grid.n_t
    radii = np.arange(n_fine + 1) * (c * time_grid.t_final / n_fine)
    n_ang = ANGULAR_FACTOR * 4 * img.grid.n
    m = oracle_mean_table(img, pos, normal, radii, n_ang, scenario.directivity_enabled)

    psi = (np.arange(N_PSI) + 0.5) * (np.pi / 2.0) / N_PSI
    r_eval = c * t[:, None] * np.sin(psi)[None, :]
    m_eval = np.interp(r_eval.ravel(), radii, m).reshape(r_eval.shape)
    v = (np.pi / 2.0 / N_PSI) * (r_eval * m_eval).sum(axis=1)
    return np.gradient(v, time_grid.dt)


@pytest.mark.slow
def test_2_forward_solver_matches_fine_quadrature_oracle(acceptance_record):
    t0 = time.monotonic()
    worst = 0.0
    worst_pre = 0.0
    for label, n_s, directivity in (("C_limited_sparse", 6, True), ("B_sparse", 4, False)):
        scenario = make_scenario(label, n=128, n_s=n_s, directivity_enabled=directivity)
        img = disc_image(scenario.grid)
        data = ForwardOperator(scenario).simulate(img)
        peak = np.abs(data.values).max()
        for j in range(n_s):
            u_orc = oracle_waveform(img, scenario, j)
            err = np.linalg.norm(data.values[:, j] - u_orc) / np.linalg.norm(u_orc)
            worst = max(worst, err)

            # quiet before the first possible arrival; the rasterized disc
            # bleeds one pixel diagonal past its radius and the derivative
            # stencil reaches one sample ahead
            pos = scenario.detectors.positions[j]
            dist = np.hypot(pos[0] - DISC_CENTER[0], pos[1] - DISC_CENTER[1])
            arrival = dist - DISC_RADIUS - np.sqrt(2) * scenario.grid.spacing
            early = scenario.time.samples() < arrival / scenario.sound_speed - scenario.time.dt
            if early.any():
                worst_pre = max(worst_pre, np.abs(data.values[early, j]).max() / peak)
    elapsed = time.monotonic() - t0

    ok = worst < 0.01 and worst_pre <= 1e-6 and elapsed < 300.0
    acceptance_record(
        f"2 forward solver vs 10x quadrature oracle: {'PASS' if ok else 'FAIL'} "
        f"(worst detector rel l2 {worst:.4f}, pre-arrival {worst_pre:.1e} of peak, {elapsed:.0f}s)"
    )
    assert worst < 0.01
    assert worst_pre <= 1e-6
    assert elapsed < 300.0


# ---------------------------------------------------------------------------
# 3. full-view reconstruction of a smooth source


def gaussian_image(grid, sigma=0.1):
    # narrow enough that its tail is negligible at the detection circle
    # (mass outside the circle is invisible to every detector and would
    # put a resolution-independent floor under the error)
    centers = grid.pixel_centers()
    d2 = (centers[:, :, 0] - 0.15) ** 2 + (centers[:, :, 1] + 0.2) ** 2
    return Image(grid, np.exp(-d2 / (2.0 * sigma**2)))


def full_view_error(n_s, n_t):
    scenario = Scenario(
        grid=ImageGrid(n=128),
        detectors=make_detectors("B_sparse", n_s, 1.0),
        time=TimeGrid(n_t=n_t, t_final=3.0),
        directivity_enabled=False,
        label="B_sparse",
    )
    truth = gaussian_image(scenario.grid)
    data = ForwardOperator(scenario).simulate(truth)
    recon = BackprojectionOperator.from_scenario(scenario).standard(data)
    return rel_error(recon, truth)


@pytest.mark.slow
def test_3_full_view_reconstruction_is_near_exact(acceptance_record):
    base = full_view_error(200, 400)
    doubled = full_view_error(400, 800)

    ok = base < 0.1 and doubled <= base
    acceptance_record(
        f"3 full-view reconstruction: {'PASS' if ok else 'FAIL'} "
        f"(rel err {base:.4f} at 200 detectors x 400 samples, {doubled:.4f} doubled)"
    )
    assert base < 0.1
    assert doubled <= base


# ---------------------------------------------------------------------------
# 4. all-ones weights reduce to the plain backprojection


def test_4_identity_reduction(acceptance_record):
    scenario = make_scenario("B_sparse", n=16, n_s=4, n_t=30)
    pairs = simulate_pairs(scenario, range(3))
    op = BackprojectionOperator.from_scenario(scenario)
    ones = WeightTensor.ones(scenario.grid, scenario.detectors.n_s)

    bitwise = all(
        np.array_equal(op.apply(ones, data).values, op.standard(data).values)
        and np.array_equal(
            BackprojectionOperator.from_scenario(scenario).apply(ones, data).values,
            op.contrib(data).sum_image().values,
        )
        for data, _ in pairs
    )

    columns_match = []
    for cfg in (TrainConfig(epochs=3, learning_rate=0.0), TrainConfig(epochs=0)):
        state = sgd_train(pairs, [], cfg, op)
        unchanged = np.array_equal(state.weights.values, ones.values)
        report = evaluate(state.weights, pairs, op)
        columns_match.append(unchanged and report.errors["weighted-UBP"] == report.errors["UBP"])

    ok = bitwise and all(columns_match)
    acceptance_record(
        f"4 identity reduction: {'PASS' if ok else 'FAIL'} "
        f"(all-ones bitwise {bitwise}, lr=0 column {columns_match[0]}, "
        f"epochs=0 column {columns_match[1]})"
    )
    assert bitwise
    assert all(columns_match)


# ---------------------------------------------------------------------------
# 5. learned weights beat the plain backprojection on held-out data

DESK_SCENARIOS = (("A_limited_view", 40), ("B_sparse", 20), ("C_limited_sparse", 20))


@pytest.mark.slow
def test_5_learned_weights_improve_heldout_error(acceptance_record):
    results = []
    for label, n_s in DESK_SCENARIOS:
        scenario = make_scenario(label, n=64, n_s=n_s)
        train_pairs = simulate_pairs(scenario, range(150))
        test_pairs = simulate_pairs(scenario, range(1000, 1030))
        op = BackprojectionOperator.from_scenario(scenario)
        state = sgd_train(train_pairs, [], TrainConfig(epochs=100), op)
        report = evaluate(state.weights, test_pairs, op, scenario_label=label)
        results.append((label, report.mean("UBP"), report.mean("weighted-UBP")))

    ratios = [weighted / ubp for _, ubp, weighted in results]
    ok = all(r <= 0.75 for r in ratios)
    detail = ", ".join(
        f"{label[0]} {ubp:.3f}->{weighted:.3f}" for (label, ubp, weighted) in results
    )
    acceptance_record(
        f"5 learned weights on held-out data: {'PASS' if ok else 'FAIL'} "
        f"({detail}; worst improvement {100 * (1 - max(ratios)):.0f}%, need >= 25%)"
    )
    for (label, ubp, weighted), ratio in zip(results, ratios):
        assert ratio <= 0.75, f"{label}: weighted {weighted} vs plain {ubp}"


# ---------------------------------------------------------------------------
# 6. metric identities and run-to-run determinism


def test_6_metric_identities_and_determinism(acceptance_record):
    scenario = make_scenario("B_sparse", n=16, n_s=4, n_t=30)
    pairs = simulate_pairs(scenario, range(4))
    op = BackprojectionOperator.from_scenario(scenario)

    truth = pairs[0][1]
    identities = (
        rel_error(truth, truth) == 0.0
        and rel_error(Image(scenario.grid, np.zeros_like(truth.values)), truth) == 1.0
        and rel_error(Image(scenario.grid, 2.0 * truth.values), truth) == 1.0
    )

    ones = WeightTensor.ones(scenario.grid, scenario.detectors.n_s)
    perfect = [(data, op.apply(ones, data)) for data, _ in pairs]
    loss_iff = loss(ones, perfect, op) == 0.0 and loss(ones, pairs, op) > 0.0

    def run():
        checkpoints, rows = [], []
        cfg = TrainConfig(epochs=3, checkpoint_every=1, shuffle_seed=5)
        sgd_train(
            pairs[:3],
            pairs[3:],
            cfg,
            op,
            checkpoint=lambda e, w: checkpoints.append((e, w.values.copy())),
            # wall seconds are excluded: the one log field that cannot be
            # deterministic
            log=lambda e, tr, held, lr, wall: rows.append((e, tr, held, lr)),
        )
        return checkpoints, rows

    (ck_a, rows_a), (ck_b, rows_b) = run(), run()
    deterministic = (
        rows_a == rows_b
        and len(ck_a) == len(ck_b)
        and all(ea == eb and np.array_equal(wa, wb) for (ea, wa), (eb, wb) in zip(ck_a, ck_b))
    )

    ok = identities and loss_iff and deterministic
    acceptance_record(
        f"6 metric identities and determinism: {'PASS' if ok else 'FAIL'} "
        f"(identities {identities}, zero-loss iff exact {loss_iff}, "
        f"bitwise repeat {deterministic})"
    )
    assert identities
    assert loss_iff
    assert deterministic


# ---------------------------------------------------------------------------
# 7. file-format conformance


def parse_p5(path):
    """Independent minimal P5 reader used only to audit the writer."""
    blob = path.read_bytes()
    fields, pos = [], 0
    while len(fields) < 4:
        end = blob.index(b"\n", pos)
        token = blob[pos:end].split(b"#")[0].split()
        fields.extend(token)
        pos = end + 1
    magic, width, height, maxval = fields[0], int(fields[1]), int(fields[2]), int(fields[3])
    assert magic == b"P5" and maxval == 65535
    pixels = struct.unpack(f">{width * height}H", blob[pos : pos + 2 * width * height])
    return np.array(pixels, dtype=np.float64).reshape(height, width)


def test_7_format_conformance(acceptance_record, tmp_path):
    rng = np.random.default_rng(77)
    specials = np.array(
        [0.0, -0.0, 1e-42, -1e-42, 3.0e38, -3.0e38, np.pi, -1.0], dtype=np.float32
    )
    tensors = [
        rng.standard_normal((5, 7)).astype(np.float32),
        (rng.standard_normal((3, 4, 2)) * 10.0 ** rng.integers(-30, 30, (3, 4, 2))).astype(
            np.float32
        ),
        np.resize(specials, (4, 6)),
    ]
    lossless = True
    for k, tensor in enumerate(tensors):
        path = tmp_path / f"t{k}.patb"
        write_patb(path, tensor.astype(np.float64))
        back = read_patb(path)
        lossless = lossless and np.array_equal(
            back.astype(np.float32).view(np.uint32), tensor.view(np.uint32)
        )

    image = rng.standard_normal((31, 17)) * 4.0
    pgm = tmp_path / "img.pgm"
    write_pgm(pgm, image)
    pixels = parse_p5(pgm)
    sidecar = dict(
        line.split("=", 1) for line in (tmp_path / "img.pgm.txt").read_text().splitlines()
    )
    vmin, vmax = float(sidecar["vmin"]), float(sidecar["vmax"])
    restored = vmin + pixels * (vmax - vmin) / 65535.0
    step = (vmax - vmin) / 65535.0
    pgm_err = np.abs(restored - image).max()

    ok = lossless and pgm_err <= step
    acceptance_record(
        f"7 file formats: {'PASS' if ok else 'FAIL'} "
        f"(tensor round-trip bitwise {lossless}, image export off by "
        f"{pgm_err / step:.2f} of one quantization step)"
    )
    assert lossless
    assert pgm_err <= step
