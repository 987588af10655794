"""Golden hashes: fixed seeds must keep giving the same bits.

Each case hashes the float64 bytes of a computation's output with SHA-256.
The solver cases cover the solution coordinates plus the iteration count,
the violated rows, the maximum violation and the guarantee flags; the traced
solver cases add the ``collect_trace`` rows and the oracle and noise
counters; the spectral cases cover eigenvalues, Jordan frames and exponentials on a fixed
random set of elements; the file cases hash the bytes ``save_instance`` writes
for generated instances.  A speed-up that reorders a floating-point sum shows
up here as a changed hash.  A change that alters outputs on purpose says so
and re-pins the values below.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conedp.eja import (
    AlgebraDescriptor,
    eigenvalues,
    expm,
    from_coords,
    spectral_decompose,
    to_coords,
)
from conedp.harness.generators import generate_covering_sdp, generate_feasible_scp
from conedp.harness.instances import save_instance
from conedp.mechanisms import PrivacyBudget, RandomSource, Sensitivity
from conedp.mwu import cone_mwu_init, cone_mwu_step
from conedp.solvers import (
    SolverConfig,
    covering_density_lower_bound,
    solve_constraint_private,
    solve_covering_high_sensitivity,
    solve_feasibility,
    solve_scalar_private,
)

_ALGEBRAS = ("s3", "r2+s3+q4", "s2+s5")


class _Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def floats(self, values) -> None:
        self._h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())

    def text(self, value) -> None:
        self._h.update(repr(value).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _report_digest(report) -> str:
    d = _Digest()
    d.floats(to_coords(report.solution))
    d.text(report.iterations)
    d.text([i for i, _ in report.violated])
    d.floats([v for _, v in report.violated])
    d.floats([report.max_violation])
    d.text(report.guarantee_flags)
    return d.hexdigest()


def _traced_digest(report) -> str:
    d = _Digest()
    d.text(_report_digest(report))
    d.text([(t, i) for t, i, _ in report.trace])
    d.floats([v for _, _, v in report.trace])
    d.text((report.oracle_invocations, report.noise_invocations))
    return d.hexdigest()


def _private_config(alpha, epsilon, delta, sensitivity) -> SolverConfig:
    return SolverConfig(
        alpha=alpha,
        beta=0.05,
        budget=PrivacyBudget(epsilon, delta),
        sensitivity=Sensitivity(sensitivity, "linf"),
        collect_trace=True,
    )


def _traced_feasibility(
    spec: str, seed: int, m: int = 8, margin: float = 0.05, alpha: float = 0.3
) -> str:
    instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), m, margin, seed)
    return _traced_digest(solve_feasibility(instance, alpha, collect_trace=True))


def _traced_feasibility_ge(seed: int) -> str:
    # GE rows: the covering instance scaled so a trace-one point is feasible
    instance, meta = generate_covering_sdp(2, 8, seed)
    instance = dataclasses.replace(instance, scalars=instance.scalars / meta["planted_opt"])
    return _traced_digest(solve_feasibility(instance, 0.2, collect_trace=True))


def _traced_scalar(spec: str, seed: int, sensitivity: float, m: int = 8) -> str:
    instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), m, 0.05, seed)
    config = _private_config(0.3, 1.0, 1e-5, sensitivity)
    return _traced_digest(solve_scalar_private(instance, config, RandomSource(seed)))


def _traced_constraint(spec: str, seed: int, sensitivity: float, m: int = 8) -> str:
    instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), m, 0.05, seed)
    config = _private_config(0.5, 2.0, 0.05, sensitivity)
    return _traced_digest(solve_constraint_private(instance, config, RandomSource(seed)))


def _traced_constraint_loss_bound(seed: int) -> str:
    # huge Gaussian noise: the loss leaves [-1, 1] and the flag is raised
    instance, _ = generate_feasible_scp(AlgebraDescriptor.sym(2), 4, 0.05, seed)
    config = _private_config(2.0, 0.05, 0.05, 1.0)
    report = solve_constraint_private(instance, config, RandomSource(seed))
    assert "loss-bound-exceeded" in report.guarantee_flags
    return _traced_digest(report)


def _traced_covering(seed: int) -> str:
    instance, meta = generate_covering_sdp(2, 8, seed)
    opt = meta["planted_opt"]
    config = SolverConfig(
        alpha=opt, beta=0.1, budget=PrivacyBudget(1.0, 0.01), density=7,
        collect_trace=True,
    )
    report = solve_covering_high_sensitivity(instance, opt, config, RandomSource(seed))
    return _traced_digest(report)


def _covering_s3(instance_seed: int | None, opt: float | None, alpha: float, seed: int) -> str:
    # the criterion-10 size: S3, m = 64, s = 62 (the density floor at eps 1,
    # delta 0.01, beta 0.1); instance_seed None is the analytic instance, and
    # opt None takes the planted optimum.  Traced, so the per-step worst row
    # and its raw loss are pinned too.
    if instance_seed is None:
        instance, meta = generate_covering_sdp(3, 64, 0, analytic=True)
    else:
        instance, meta = generate_covering_sdp(3, 64, instance_seed)
    opt = meta["planted_opt"] if opt is None else opt
    config = SolverConfig(
        alpha=alpha * opt, beta=0.1, budget=PrivacyBudget(1.0, 0.01), density=62,
        collect_trace=True,
    )
    return _traced_digest(
        solve_covering_high_sensitivity(instance, opt, config, RandomSource(seed))
    )


def _covering_width_exceeded(seed: int) -> str:
    # opt = 0.5 makes the width bound 3 opt - 1 = 0.5, which the analytic
    # rows' raw losses pass, so the run sets width-exceeded
    instance, _ = generate_covering_sdp(3, 64, 0, analytic=True)
    config = SolverConfig(
        alpha=0.25, beta=0.1, budget=PrivacyBudget(1.0, 0.01), density=62,
        collect_trace=True,
    )
    report = solve_covering_high_sensitivity(instance, 0.5, config, RandomSource(seed))
    assert "width-exceeded" in report.guarantee_flags
    return _traced_digest(report)


def _feasibility(spec: str, seed: int) -> str:
    instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), 8, 0.05, seed)
    return _report_digest(solve_feasibility(instance, 0.3))


def _scalar_private(spec: str, seed: int) -> str:
    instance, _ = generate_feasible_scp(AlgebraDescriptor.from_spec(spec), 8, 0.05, seed)
    config = SolverConfig(
        alpha=0.3,
        beta=0.05,
        budget=PrivacyBudget(1.0, 1e-5),
        sensitivity=Sensitivity(0.05, "linf"),
    )
    return _report_digest(solve_scalar_private(instance, config, RandomSource(seed)))


def _covering(seed: int) -> str:
    instance, meta = generate_covering_sdp(2, 8, seed, analytic=seed == 0)
    opt = meta["planted_opt"]
    s = min(7, math.ceil(covering_density_lower_bound(2, 1.0, 0.01, 0.1, 8)))
    config = SolverConfig(
        alpha=opt, beta=0.1, budget=PrivacyBudget(1.0, 0.01), density=s
    )
    report = solve_covering_high_sensitivity(instance, opt, config, RandomSource(seed))
    return _report_digest(report)


def _spectral_elements(rank: int):
    rng = RandomSource(7000 + rank)
    alg = AlgebraDescriptor.sym(rank)
    for scale in (1.0, 1e-3, 40.0):
        for _ in range(3):
            yield from_coords(alg, scale * np.asarray(rng.standard_normal(alg.dim)))


def _spectral(rank: int) -> str:
    d = _Digest()
    for x in _spectral_elements(rank):
        d.floats(eigenvalues(x))
        dec = spectral_decompose(x)
        d.floats(dec.eigenvalues)
        for q in dec.frame:
            d.floats(to_coords(q))
        d.floats(to_coords(expm(x)))
    return d.hexdigest()


def _mixed_expm(spec: str) -> str:
    alg = AlgebraDescriptor.from_spec(spec)
    rng = RandomSource(len(spec))
    d = _Digest()
    for scale in (0.5, 3.0, 30.0):
        for _ in range(4):
            x = from_coords(alg, scale * np.asarray(rng.standard_normal(alg.dim)))
            d.floats(to_coords(expm(x)))
            dec = spectral_decompose(x)
            d.floats(dec.eigenvalues)
            for q in dec.frame:
                d.floats(to_coords(q))
    return d.hexdigest()


def _cone_iterates(spec: str) -> str:
    alg = AlgebraDescriptor.from_spec(spec)
    rng = RandomSource(31 * len(spec))
    state = cone_mwu_init(alg, 0.7)
    d = _Digest()
    for _ in range(25):
        loss = from_coords(alg, np.asarray(rng.standard_normal(alg.dim)))
        state = cone_mwu_step(state, loss)
        d.floats(to_coords(state.iterate))
    return d.hexdigest()


def _file_digest(instance, metadata) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        save_instance(path, instance, metadata)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def _feasible_file(spec: str, m: int, margin: float, seed: int) -> str:
    alg = AlgebraDescriptor.from_spec(spec)
    return _file_digest(*generate_feasible_scp(alg, m, margin, seed))


def _covering_file(r: int, m: int, seed: int, analytic: bool = False) -> str:
    return _file_digest(*generate_covering_sdp(r, m, seed, analytic=analytic))


GOLDEN = {
    "cone-step-r2+s3+q4": "920e5c91a21e06228877c8d1a3b90ac86b85fb9fbb97283a6405ac193a8312c8",
    "cone-step-s3": "53aec34e47bbb083ca0156f1cf2509d56f1742c8d804a505a4ed76d6dab21213",
    "cone-step-s8": "045d94caad0c67fb9211be7d14e12dadf692b893b1203f1df6c8542b24150d25",
    "covering-s2-0": "018c2861fd52daa66f5d9ea96d5bd52b8dd804e3aad79862277a819e7b7b076b",
    "covering-s2-5": "d1f706026a01355888688f8274e8a1cd9375042511db9a3586c29ff5d4f72368",
    "covering-s2-6": "a7a0d4d44838dd0fa83dde83916b5ec89521775274b76ee3b499861c3e8c1dad",
    "expm-q3+r3": "49a62c20e121665fae28470708286fb3112204dbd66d17754727b74171b36094",
    "expm-r2+s3+q4": "b398326dfd70244680750fc214c2ddf0312567c1a7853d9f4f28cd050a42600f",
    "expm-r4": "f0541cd7bb207e69990d6ea6881ebe07bc3de667bb2249b1f33fa5995968a7bc",
    "expm-s2+s5": "52018fe74960f7645ae8d0aad7bc651eb6c5cff3a590b90251eb809b8113e954",
    "expm-s3": "3b7154032d2775c23399b392fe5f4cafcd206a1fe9930ad51c74db67b40a64c2",
    "feasibility-r2+s3+q4-1": "f2421257910bdfa014ea1ae055d1931019835d56f3b068ae136c8d9a2d005aff",
    "feasibility-r2+s3+q4-2": "d5b7bf6e7ecd7da6368835cfba965746e154f437a8581d9d53b7840c654483b3",
    "feasibility-s2+s5-1": "6ee71e81c93510c7e6cdb25f5daf50a4483bf5871ba5cf2803b21552b7218ffc",
    "feasibility-s2+s5-2": "23a5c214b409f84244d397939313ade5e2645e668f1bc21d0fe7ab0ae84a10ca",
    "feasibility-s3-1": "d4386e8904ce73bd62fdf55b6a2a4f9ebff670870faf4d74b258f802341d8ca5",
    "feasibility-s3-2": "0aca85162ea17211c59a6970ef79572d7e7f3c14cd3b0c5f5a3293f55c614e66",
    "file-covering-s1-m64-101": "487c5dca187a4d95a00e1984f3030f1f944bc7f3c95a9914415ca2c0d79ca1c0",
    "file-covering-s10-m64-101": "1572e15b26f721900aeed9c353fd93dec4c54c8391199189aef454e248c6a6f5",
    "file-covering-s3-m64-101": "aba54020ba51f78a172a1648cf13a7d31acc4d098c64e049707d972d3298c8c9",
    "file-covering-s3-m64-analytic": "ebd85f90b86f812cbe2515f0fe6695607bb8d4ae3509dd80f0eedaa26979c33a",
    "file-feasible-q3-m32-7": "b9e31ee3fd654918e0ddcbbf7f3cbf1f94c70d64b36d0f17b4abcd9acfee046d",
    "file-feasible-r2+s3+q4-m1-7": "73696c5a2c84baa0f8a95d46e0c81f44abdf9eda2f49ba073c0e1fffb6ed1422",
    "file-feasible-r2+s3+q4-m4000-11": "378740e4b9552ee1cc11532b39aba26a53e88139aa07aa19ea500a403405c20b",
    "file-feasible-r5-m32-7": "a85c6a6cc7ccaba5bfad13089a3bf570020506a5102a7140009901f3bc479726",
    "file-feasible-s2+s5-m32-7": "f9dbf65220cd1d21aa8f4d046e13e2109a502032212d0de2b5af3a881cea1411",
    "file-feasible-s3-m32-900": "ca2ff4733400d002422f3d0916a3646f804a9fbf94c1b373b0b17330c514da2f",
    "file-feasible-s8-m32-900": "33cdc3376123e4a0eaf794f8c363770c87ecdeb3f4bfc550d259b1ea958e663c",
    "scalar-r2+s3+q4-3": "e8100d5617ffcb29f87716cfdc8d0ed1e83b5ac44935befe36f4c1809385d94a",
    "scalar-r2+s3+q4-4": "bf0f343a94697d6e9e330730d9a8e930f53d2c08f87c33109cb4eefe4c3e7151",
    "scalar-s2+s5-3": "73b547d89cc7b8a1fbacfc110efb3bf56c1b3f9a0d4543ab55d8df09cc4d3c78",
    "scalar-s2+s5-4": "61beea5ba889c6aabd71b5194290aec6f9a2415a7309ae1598162d6fdf8265ef",
    "scalar-s3-3": "082fc19cdad81a139d08cd5d3ea474735f39f61b1f27f18e1c486a6013fde063",
    "scalar-s3-4": "dbc91f753b9f34053028bc43a2916682d4b151762fdb86d65da3ba6789ea13b3",
    "spectral-s1": "2814635f8f7a937bec601e2207f5a6806b4268bacf5e1abe9c3c0d9575c390da",
    "spectral-s10": "b099f9b7839ef710e1ca144bc1c7657b5efe6302b87c5ff68e74ff1e2825427c",
    "spectral-s2": "eb6e639255d82de99295c83e0225158acfad6f4ecbffe6dcb110d9a54b632a33",
    "spectral-s3": "191ef64c78367d6e81636fc6772da8f00ff83bd2df39ff11d1098d3c896c1ada",
    "spectral-s4": "e35bf5003ec36e5aeea8cc83f379d1c7473cce2e7687879681af7c6e22bbb27e",
    "spectral-s5": "33c5d518ae9188bcde8c8947360e741062836e41cf96e1aa838e94e4a6464973",
    "spectral-s6": "70c0a029871a11a085b9bb8621dff7792ffd1e7dea5ab316640ef2446f7d621b",
    "spectral-s7": "491cf252909a3af4261b05ef9da45dae310bb1ae8e4ba20666df0de60feae739",
    "spectral-s8": "091a43eaa828e36db21311eca72332e7efbb3892861032981503747ac8ff6b58",
    "spectral-s9": "dc3266def193f5c41bca6932a389f828f6a0ceddd584ba86327fc91bb308e486",
    "traced-constraint-exact-s3-5": "31a11b97a9d5aa94c5f91fae4f08e56f882ac13d33ed339d9ddc14f10a55ce0c",
    "traced-constraint-loss-bound-s2-1": "fb6385b8b271673c1d2ccab1d36e937d1cd2ee1f2a70d832bfbc4f1c2b85e8ce",
    "traced-constraint-loss-bound-s2-2": "a7d50ba2e92c30b27bfbf957239444d06c48b4031b65cd272538144c5b9f5fc0",
    "traced-constraint-r2+s3+q4-5": "95079e3368c80b7b5fe8a1f20205367f5bb7797a7eed6016f2c146d9ee57e0ec",
    "traced-constraint-s2+s5-5": "5743915edd16a3d6b8ff571899584bd2b16b90f13f0b062277959cf73aa771cf",
    "traced-constraint-s3-5": "ed86c7334fd5e492f7ae3e913e1a04be99128c0658b94d7310b7ccb805a7b3c7",
    "traced-constraint-s3-m32-900": "851215d62b18df8483f90957ef88c446269eaf4d687861d0bf9d8fff562ca620",
    "traced-covering-s2-5": "083fccc3d644cede85e1317d17bfd2c7b721d1132df41ccb4aff89094a643d12",
    "traced-covering-s3-m64-101-4": "12f506c50f4d299ce5088e43fc74211527d96466470adcb0d8c36215a1c5db38",
    "traced-covering-s3-m64-analytic-3": "13b0dc091e99ba92065ac873f60058a20b271bfa3c768e7263310dd6a6950885",
    "traced-covering-s3-m64-width-exceeded-5": "9be3242d018569a92a542cdedf956f3a8c7dac6bbe040130c24824480504225d",
    "traced-feasibility-ge-s2-5": "759b29cc17d9aac50ec29d7bed8f578e2d7ca7614795614fe2cd120dd332b436",
    "traced-feasibility-ge-s2-6": "9be85ed2d54a151e3440f1338a84b5bef2b24e97e631650cb592b2ac3d95d145",
    "traced-feasibility-r2+s3+q4-1": "23be46cbcfb68a3e90086208204b4d0b66d6ee2e2ef2e55788636dbe95faceda",
    "traced-feasibility-s2+s5-1": "c15283c385ff55ed13bf524970c6102f0f7f2ecf095c843b409ef4c0f33b6f6f",
    "traced-feasibility-s3-1": "2d95162ca6b959447335652a4df76242756538a0f19230ee05ab493bbd20c81f",
    "traced-feasibility-s3-m32-900": "2554064ea78ccd5ed216e7b4f2481ae0e159e00713125b21ba99597c630d3a6a",
    "traced-feasibility-s8-m32-900": "4c8ca2595d05734abc1c359f421dbefb7e9cef90cb21b7aa1088898c34bc9b0f",
    "traced-scalar-exact-s3-3": "8e90ddbf1181ff660106ff0dafe5a13527e6a913c70b52e623abef35ff14deaa",
    "traced-scalar-r2+s3+q4-3": "ee2e116b82853cd780c0622b0e54dd0bcd171bb75d87df44d57657de270f9068",
    "traced-scalar-r2+s3+q4-m400-3": "98ee1996d1f138cedeedcfdc272defee58f968dc39c86997c0fc0ad4130f4a99",
    "traced-scalar-r2+s3+q4-m400-4": "2e927d0ca0863b9b702bfaaa987fcc214aa95a173f7af12069f764b3bfae819d",
    "traced-scalar-s2+s5-3": "97a047034d498ff60c5f5aec5317d2b33fa73c8446745255a1a91204bbc3d5fb",
    "traced-scalar-s3-3": "8ef025645dcef86ca411d17295696055b6332e1a6222e93be4e94097931b0ab0",
}

CASES = {
    **{f"feasibility-{a}-{s}": (_feasibility, a, s) for a in _ALGEBRAS for s in (1, 2)},
    **{f"scalar-{a}-{s}": (_scalar_private, a, s) for a in _ALGEBRAS for s in (3, 4)},
    **{f"covering-s2-{s}": (_covering, s) for s in (0, 5, 6)},
    **{f"traced-feasibility-{a}-{s}": (_traced_feasibility, a, s) for a in _ALGEBRAS for s in (1,)},
    **{f"traced-feasibility-ge-s2-{s}": (_traced_feasibility_ge, s) for s in (5, 6)},
    # the criterion-09 size (S3, m = 32, margin 0, alpha = 0.1) and an S8 exact solve
    "traced-feasibility-s3-m32-900": (_traced_feasibility, "s3", 900, 32, 0.0, 0.1),
    "traced-feasibility-s8-m32-900": (_traced_feasibility, "s8", 900, 32, 0.0, 0.3),
    # r = 7 and m = 400: the private-wide algebra and T = 346
    **{
        f"traced-scalar-r2+s3+q4-m400-{s}": (_traced_scalar, "r2+s3+q4", s, 0.05, 400)
        for s in (3, 4)
    },
    **{f"traced-scalar-{a}-{s}": (_traced_scalar, a, s, 0.05) for a in _ALGEBRAS for s in (3,)},
    "traced-scalar-exact-s3-3": (_traced_scalar, "s3", 3, 0.0),
    **{f"traced-constraint-{a}-{s}": (_traced_constraint, a, s, 0.01) for a in _ALGEBRAS for s in (5,)},
    "traced-constraint-exact-s3-5": (_traced_constraint, "s3", 5, 0.0),
    "traced-constraint-s3-m32-900": (_traced_constraint, "s3", 900, 0.01, 32),
    **{f"traced-constraint-loss-bound-s2-{s}": (_traced_constraint_loss_bound, s) for s in (1, 2)},
    "traced-covering-s2-5": (_traced_covering, 5),
    "traced-covering-s3-m64-analytic-3": (_covering_s3, None, None, 0.5, 3),
    "traced-covering-s3-m64-101-4": (_covering_s3, 101, None, 0.5, 4),
    "traced-covering-s3-m64-width-exceeded-5": (_covering_width_exceeded, 5),
    **{f"spectral-s{r}": (_spectral, r) for r in range(1, 11)},
    **{f"expm-{a}": (_mixed_expm, a) for a in ("s3", "r2+s3+q4", "s2+s5", "q3+r3", "r4")},
    **{f"cone-step-{a}": (_cone_iterates, a) for a in ("s3", "r2+s3+q4", "s8")},
    # the bytes `save_instance` writes for generated instances; the
    # r2+s3+q4 m = 4000 file is the private-wide benchmark's at seed 0
    "file-feasible-s3-m32-900": (_feasible_file, "s3", 32, 0.0, 900),
    "file-feasible-r2+s3+q4-m4000-11": (_feasible_file, "r2+s3+q4", 4000, 0.05, 11),
    "file-feasible-s8-m32-900": (_feasible_file, "s8", 32, 0.0, 900),
    "file-feasible-s2+s5-m32-7": (_feasible_file, "s2+s5", 32, 0.05, 7),
    "file-feasible-q3-m32-7": (_feasible_file, "q3", 32, 0.05, 7),
    "file-feasible-r5-m32-7": (_feasible_file, "r5", 32, 0.05, 7),
    "file-feasible-r2+s3+q4-m1-7": (_feasible_file, "r2+s3+q4", 1, 0.05, 7),
    "file-covering-s3-m64-analytic": (_covering_file, 3, 64, 0, True),
    "file-covering-s3-m64-101": (_covering_file, 3, 64, 101),
    "file-covering-s1-m64-101": (_covering_file, 1, 64, 101),
    "file-covering-s10-m64-101": (_covering_file, 10, 64, 101),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_hash(name):
    fn, *args = CASES[name]
    assert fn(*args) == GOLDEN[name]
