"""Golden report digests: every experiment at quick-suite settings.

Each entry pins two sha256 digests of one ``run_experiment(...)`` report at
seed 0: of ``to_json()``, and of ``to_csv()``. The tables are pinned at
seeds 1 and 2 as well, since the seed picks each row's gamma. The JSON is written with
sorted keys, so only the CSV header sees the order in which a row's keys
were inserted. A change to the arithmetic, the row reduction or the enumeration order of
deltas and gammas that alters any report shows up here as a mismatch.
The moduli that the seeded search picks for the table fields and for
F_7^61 are pinned too, so a change to the modulus search that keeps the
reports but moves a field's representation is caught as well. One more
digest pins the alpha sweeps: the intersection verdict, the orbit report
and the semilinear equivalence search on seeded spaces, and the trace
construction, which re-measures its subfield intersections. The
construction records of every builder are pinned at seeds 0 and 1, each as
the digest of ``report_json(rec.to_dict())``. The irreducibles that
``random_irreducibles`` samples (rather than enumerates) and the minimal
polynomials over F_(4^5) and F_(9^2) are pinned as well, since no report
reaches them.
"""

import hashlib
import json

import numpy as np
import pytest

from sidonspace.constructions import (
    F7_EXAMPLE_QUADRATICS,
    binomial_family,
    maxspan_from_brset,
    maxspan_from_irreducibles,
    monomial,
    trace_space,
)
from sidonspace.experiments import (
    TABLE2_ROWS,
    TABLE3_ROWS,
    ExperimentSpec,
    report_json,
    run_experiment,
)
from sidonspace.field import (
    FieldElement,
    find_generator,
    make_field,
    minimal_polynomial,
    random_irreducibles,
)
from sidonspace.orbit import orbit_report, semilinear_equivalent
from sidonspace.sidon import is_sidon_intersection
from sidonspace.subspace import frob_image, random_subspace, scale

GOLDEN = [
    ("table2", {"limit": 2}, "f7168a30ca5845d394dfadc01d3a50e54a7d823daac031c9facf39bbb4953066",
     "1d293235e41bb0790051799b71d0047b26f7c2cff28cb0d942af4845307bb989"),
    ("table3", {"limit": 2}, "0d7dd6ba960d78b1deac34973f45ee3027bf87e83b237f5f2ae40787818df16b",
     "ed11621622e1ceab715b60fe77b9d9412360b47a7192cc11d8cd69d514c62687"),
    ("prop-f26", {}, "3f207348fc8b31d309cde1914c24e3fae13a9c71cdd53478298126da37940225",
     "06548cd9bed6db87a3f2873ccd4042d890251fd4281fbce0a434ace17198606e"),
    ("prop-trace-9", {"limit": 1}, "c41c8513e0f41949daed9f9258c1ccf82106c35e357044b7c92c45b0651f06a8",
     "b8e9cc4f7f9068f62b33686f82e7fa53beccf9d49b7ce1a784f26e800be6f590"),
    ("sample-f2-9", {"samples": 200}, "7ea427ff2b6f86c5d5a7a62c2f853c25d1738a20fa52e5517120189bb348259f",
     "6cc20fbc1df2c11ae234998e5da67a78b27431fdb4fc0a1ea380c84dc4a68579"),
    ("brset-316", {}, "fb99aeba4e8f903d94bbbf33a5686a625aed0163befd4464ea19d5d1ed15c14e",
     "d002d5f4704484774b57c6e06015031f9bb92a15b59c5b1dcd7496a1941a162f"),
    # with audits: every kneser-step and span-lower check reads the
    # stabilizer degree of a chain level
    ("table2", {"limit": 2, "collect_audits": True}, "e3a4824866c410c0e6ef9a4a84c5828b12fd7cf72ff58d0a328e5ad81ec9ce88",
     "1d293235e41bb0790051799b71d0047b26f7c2cff28cb0d942af4845307bb989"),
    ("prop-f26", {"collect_audits": True}, "a22f1fc4135eaaeb06ee8763c098618535b6d791bb966341f7b9a921a5ec409a",
     "06548cd9bed6db87a3f2873ccd4042d890251fd4281fbce0a434ace17198606e"),
    ("brset-316", {"collect_audits": True}, "382d55f4a62e0a75958f477d2032431389409f19bf898b933bed380164f2866a",
     "d002d5f4704484774b57c6e06015031f9bb92a15b59c5b1dcd7496a1941a162f"),
]

# (name, seed, json digest, csv digest) of the tables at limit 2: gamma depends on the seed
GOLDEN_SEEDS = [
    ("table2", 1, "4df1c4c60334cc2689950bf1e8000bcf681bbebcd767cf6a478ebb78ca54f1ed",
     "19bc97b4b2f0668becbf52bf4114829d2e17755b376d7dcf9a267a69d3a41025"),
    ("table2", 2, "65d5651e22f8c4d829f6095fda63747b84264402d2863eba99cf38f89455c9dd",
     "70bef5411eb451286586e01de8f377614640f80b4ee2be9f271082a0c3777f5e"),
    ("table3", 1, "f30373149f60094c64fd35865f772919e8e6685fe1d5210eeaf31b35e40842da",
     "9ac4a0ae1e5c1e8c43d6dc7a7e10e711d5bcc74c3e8cd742864b1478c5b5d361"),
    ("table3", 2, "af9c474eb0972a9f6101ceeeff077801e86adfe82468a75ca7a9c7b4c1f69f1a",
     "db39a9cb581fe5d16db81ebf2fdb49012d859f5f899c1f7254ef922b39b2243b"),
]

# id -> (builder, args, keyword args) of the records pinned below
CONSTRUCTIONS = {
    "monomial": (monomial, (2, 3, 1, 3, 2), {}),
    "monomial-t-eq-r": (monomial, (3, 3, 1, 2, 2), {}),
    "binomial-mid": (binomial_family, (2, 3, 1, 3, "mid"), {}),
    "binomial-end": (binomial_family, (3, 3, 1, 3, "end"), {}),
    "binomial-end-k2": (binomial_family, (3, 2, 1, 3, "end"), {}),
    "binomial-given-delta": (binomial_family, (3, 3, 1, 3, "mid"), {"delta": 2}),
    "trace-q2": (trace_space, (2, 3, 3), {}),
    "trace-q3": (trace_space, (3, 3, 2), {}),
    "trace-q4": (trace_space, (4, 2, 3), {}),
    "maxspan-brset": (maxspan_from_brset, ([0, 1, 3], 2, 2, 7), {}),
    "maxspan-irreducibles-q2": (maxspan_from_irreducibles, (2, 3, 2), {}),
    "maxspan-irreducibles-q3": (maxspan_from_irreducibles, (3, 3, 2), {}),
    "maxspan-irreducibles-q4": (maxspan_from_irreducibles, (4, 3, 2), {}),
    "maxspan-irreducibles-f7": (
        maxspan_from_irreducibles, (7, 4, 3), {"irreducibles": F7_EXAMPLE_QUADRATICS}
    ),
}

# (id, seed, digest of report_json(rec.to_dict()))
CONSTRUCTION_DIGESTS = [
    ("monomial", 0, "0e8e783459b6bcd04fc73d449c9df9d4793fc948a905c65d10878e934abda785"),
    ("monomial", 1, "1c87e7b9c67e950e9b8aee72b1c392de4af45b9eb8572d5d980c95fb15d6f0e4"),
    ("monomial-t-eq-r", 0, "06feed6603e034a28133e0f3b8aafd02d602749cfd332513afc7bd7fa147041e"),
    ("monomial-t-eq-r", 1, "5111b39bf240639f6f50a493ba2ce3efbb777c5e8105cb4d8f77410e80edb4ff"),
    ("binomial-mid", 0, "3c0c6422368b9251970dea29ca9db40c0f775613cb64c7b524a5e58b2481877f"),
    ("binomial-mid", 1, "9c865bf8ecc840116812dcbb894c0252cab76b2f34c9a4c9e9f638bbc67630e3"),
    ("binomial-end", 0, "1b39acb49afee3cdc1efe644ea08b5bc2d8a6c2cee7282e9b9ba8d915a1e88f1"),
    ("binomial-end", 1, "a11c41661ec40af35e03492919059ee90421d4c5479cffcba9ec3bbb26416165"),
    ("binomial-end-k2", 0, "71cefe59d8f84886f234c24b5e37388b124d6b59b2161db771feb3fc553e7493"),
    ("binomial-end-k2", 1, "abbc0012a790329d3ce6a9fa2817898761c3963b18d359814aa2539832018625"),
    ("binomial-given-delta", 0, "3873490a87d0fb8b1bb53d707c5a9672a8fc40258d4804ef1ab724a5e5ef2714"),
    ("binomial-given-delta", 1, "871b56f783b6caa13aa6dde6939e4469a13d8ad1003171a864fe222d6e2f0b8d"),
    ("trace-q2", 0, "6f9cfd307c7db80355180129b4beb30b813537c5e4c3ab77d57e511dc4d6f0d4"),
    ("trace-q2", 1, "c785a259bc2b659ced39eb473cc3659778efecb09939b8ced4488ab1f6ce2059"),
    ("trace-q3", 0, "8579919070699b210ba26bbcaae975733061b8c41b85ec7b49c5e7eaabb94f0a"),
    ("trace-q3", 1, "7d4302a030e251989f2528895e7de1f48eda565124b9c06751dbf770daa31fa0"),
    ("trace-q4", 0, "bf0a858707f32634fc33de6e3254f3b845487d2691578d2cde0057f574fe4a56"),
    ("trace-q4", 1, "f78afe42f4caa451316f1de509810fc9314370cd4717dc626cf30a7ba399e235"),
    ("maxspan-brset", 0, "3186f35bf234a8913bfbf36f399c72f8ad8e3a25ac6e486e35a877daceec6dbf"),
    ("maxspan-brset", 1, "8c9e01480c8e69cd13aefc8d0fa8ffc0024fcac9bd21306911ab8923f2be1a9d"),
    ("maxspan-irreducibles-q2", 0, "97fa669616906eca4dd8593d909fed0285dc5220c37bcc579b5e4beb7b3c9a2c"),
    ("maxspan-irreducibles-q2", 1, "5a7cfc969e732c9501dfc876a0838481184446c7aeb12d6ca236115ea9932583"),
    ("maxspan-irreducibles-q3", 0, "701a7b103046c49fedfab1911a1534ff1ceccd70cfa7f8fa940d53f53c87472a"),
    ("maxspan-irreducibles-q3", 1, "d9ba8e4272232a7df4aaaa7176bfc993e8604b8bc4276ac39ed98ec68a56afb8"),
    ("maxspan-irreducibles-q4", 0, "fc9235e37c78da983c7913f4410f1f6dbfec65599e950b9fb0aed22789f3395d"),
    ("maxspan-irreducibles-q4", 1, "a0d36643438e542e1ee7d8354f13996cdda61e68eeb83892bf9f50ed0bdc3acd"),
    ("maxspan-irreducibles-f7", 0, "1460534b5140e07a05c9db5a1c4e7d3002bcac952180a6af97c7a9dbc32d9c02"),
    ("maxspan-irreducibles-f7", 1, "e823d02646ed952326915b6ef0bed09822b29b0cc4071cd7215407348c7fca3f"),
]

# (p, n) -> modulus of make_field(p, 1, n) at seed 0, little-endian digits
MODULI = {
    (2, 24): "1010011000010110001011111",
    (2, 25): "10011011010101101111011101",
    (2, 28): "10001100001111100101101100101",
    (2, 30): "1101001011000100001010011000011",
    (2, 35): "111001110010110100101101001111001011",
    (2, 36): "1011001001100000011111101001101000001",
    (2, 40): "11011110110011011101100000001100001000111",
    (2, 42): "1010000000100000101110101011010111001001011",
    (2, 48): "1110101100011100001000111000101000100101110100101",
    (2, 49): "11111010011001111000110110010011011111101100010001",
    (3, 24): "1121022112100102011202101",
    (3, 25): "21200011011110120212122221",
    (3, 28): "12010020201112201212001110101",
    (3, 30): "2211111020002220122012120021201",
    (3, 35): "100211002021020202200102222000022111",
    (3, 36): "1220220101210120000020020102021111121",
    (3, 40): "10221200012122111020220100201000121212201",
    (3, 42): "1220201200020220000002100000020022200021211",
    (3, 48): "2020121102002210022100100020201002010020100201221",
    (7, 61): "13212563306415000266503506460263242313621410203046314363210541",
}


@pytest.mark.parametrize(
    "name,params,json_digest,csv_digest",
    GOLDEN,
    ids=[name + ("-audits" if params.get("collect_audits") else "") for name, params, *_ in GOLDEN],
)
def test_report_digest(name, params, json_digest, csv_digest):
    report = run_experiment(ExperimentSpec(name, params, seed=0))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == json_digest
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == csv_digest


@pytest.mark.parametrize(
    "name,seed,json_digest,csv_digest", GOLDEN_SEEDS, ids=[f"{name}-seed{seed}" for name, seed, *_ in GOLDEN_SEEDS]
)
def test_table_digest_at_other_seeds(name, seed, json_digest, csv_digest):
    report = run_experiment(ExperimentSpec(name, {"limit": 2}, seed=seed))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == json_digest
    assert hashlib.sha256(report.to_csv().encode()).hexdigest() == csv_digest


def test_subfield_enumeration_counts_in_base_p():
    # The tables visit deltas, and the propositions gammas, in this order.
    ctx = make_field(3, 1, 4)
    B = ctx.subfield_fp_basis(2)
    els = ctx.subfield_elements(2)
    assert els.shape == (9, 4)
    for i, row in enumerate(els):
        digits = np.array([i % 3, i // 3])
        assert (row == digits @ B % 3).all()


def test_moduli_cover_every_table_field():
    fields = {(2, n) for _, n, _ in TABLE2_ROWS} | {(3, n) for _, n, _ in TABLE3_ROWS}
    assert fields | {(7, 61)} == set(MODULI)


@pytest.mark.parametrize("p,n", sorted(MODULI), ids=[f"F{p}^{n}" for p, n in sorted(MODULI)])
def test_modulus_of_the_seeded_search(p, n):
    modulus = make_field(p, 1, n).modulus
    assert "".join(str(int(c)) for c in modulus) == MODULI[(p, n)]


def _sweep_records() -> list[dict]:
    records = []
    for p, a, n in [(2, 1, 6), (2, 1, 9), (3, 1, 5), (2, 2, 3), (2, 2, 5)]:
        ctx = make_field(p, a, n)
        for k in range(2, min(4, n) + 1):
            for seed in (0, 1):
                rng = np.random.default_rng(seed)
                V = random_subspace(ctx, k, rng)
                alpha = ctx.random_element(rng)
                while alpha.is_zero():
                    alpha = ctx.random_element(rng)
                beta, j = semilinear_equivalent(V, frob_image(scale(V, alpha), seed + 1))
                records.append({
                    "field": [p, a, n], "k": k, "seed": seed,
                    "intersection": is_sidon_intersection(V).to_dict(),
                    "orbit": orbit_report(V).to_dict(),
                    "equiv": [beta.coeffs, j],
                })
    # F_2^13 has 8,191 points: the Sidon space is swept in two blocks, the other stops in the first
    ctx = make_field(2, 1, 13)
    for k in (3, 5):
        V = random_subspace(ctx, k, np.random.default_rng(0))
        records.append({"field": [2, 1, 13], "k": k, "intersection": is_sidon_intersection(V).to_dict()})
    rec = trace_space(2, 4, 2)
    records.append({
        "trace": rec.to_dict(),
        "intersection": is_sidon_intersection(rec.space).to_dict(),
        "orbit": orbit_report(rec.space).to_dict(),
    })
    return records


def test_alpha_sweep_digest():
    records = _sweep_records()
    verdicts = [r["intersection"]["verdict"] for r in records]
    assert 0 < sum(verdicts) < len(verdicts)  # Sidon and non-Sidon spaces both appear
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "dd1a48cacdbe8156ea14ba56e0291209adb72ceaea7d7e69b030e1fa83629d06"


@pytest.mark.parametrize(
    "name,seed,digest",
    CONSTRUCTION_DIGESTS,
    ids=[f"{name}-seed{seed}" for name, seed, _ in CONSTRUCTION_DIGESTS],
)
def test_construction_record_digest(name, seed, digest):
    builder, args, kwargs = CONSTRUCTIONS[name]
    rec = builder(*args, seed=seed, **kwargs)
    assert hashlib.sha256(report_json(rec.to_dict()).encode()).hexdigest() == digest


def test_construction_digests_cover_every_case():
    pinned = {(name, seed) for name, seed, _ in CONSTRUCTION_DIGESTS}
    assert pinned == {(name, seed) for name in CONSTRUCTIONS for seed in (0, 1)}


# (q, count, max_degree) -> digests at seeds 0, 1, 2 of the lists random_irreducibles returns;
# each case draws at least one polynomial by random search, not by enumeration
SAMPLED_IRREDUCIBLES = {
    (2, 10, 5): ("41c95bcf609b3925c5136f3e799ce8d1f5800d1b4be79fdbac6caf2bd550f4bc",
                 "c87f4c9716d34ce14f925bf9f0e99a11aa97d8da0362c9a0f25beb9759fe018a",
                 "289f7a65d5f8fbaa42dc93bf68ee4fbfd67d056d374f4a06fd70b6756590b126"),
    (3, 4, 3): ("4dc3dbc127d93067779e0e38c1e0b94c3c04799eb62f56c78a11225aa4416ac3",
                "7b912aa833f5508566b919d6d9ed28fed17fe6fb4ebdd5671411b02db3ace06f",
                "4dc3dbc127d93067779e0e38c1e0b94c3c04799eb62f56c78a11225aa4416ac3"),
    (2, 3, 13): ("30edaf21676665b3894a8a5fd705995fb02089a676eea5a64ea7b8bb3b0370a7",
                 "598d0addb4467c1e31833bf6cddc2d3f07d8dfce8ba9cf3753ad39b2c514ae96",
                 "540812c74cb6eea677ccf0bad3f175f975970374249914b67be10dce9d76b88d"),
    (4, 3, 2): ("3ac2c615af0773a5ca6d414b3b4075790a39ddbd1e240e7bcdf3e261ac524bfb",
                "c170fe0bc6bc198d10cc51c62f22fd5513d3edd5fe2faf6a5317a6d3aec4ef1f",
                "219e86cf2a7a0f0cc9c95310f07d0665dc4caf83baf3b92d6b182403b309ccf5"),
}


@pytest.mark.parametrize("q,count,max_degree", sorted(SAMPLED_IRREDUCIBLES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_irreducibles(q, count, max_degree, seed):
    lists = [pl.to_list() for pl in random_irreducibles(q, count, max_degree, seed=seed)]
    digest = hashlib.sha256(json.dumps(lists).encode()).hexdigest()
    assert digest == SAMPLED_IRREDUCIBLES[(q, count, max_degree)][seed]


# (p, a, n) -> digest of the minimal polynomials over every F_(q^m), m | n, of three
# generators and of the subfield generator of each degree
MINIMAL_POLYNOMIALS = {
    (2, 2, 5): "bdac784e8d8a886b096452b4f7c43feaca74b2ac669960f33d63db55a4626196",
    (3, 2, 2): "59d749e017ed5fb3409999c25b7ac74391e6ad63602414287d41d66aec548dd7",
}


@pytest.mark.parametrize("p,a,n", sorted(MINIMAL_POLYNOMIALS), ids=["F4^5", "F9^2"])
def test_minimal_polynomial_digest(p, a, n):
    ctx = make_field(p, a, n)
    xs = [find_generator(ctx, seed=s) for s in range(3)]
    xs += [FieldElement(ctx, ctx.subfield_generator(d)) for d in ctx.subfield_degrees]
    mps = {m: [[c.coeffs for c in minimal_polynomial(x, m)] for x in xs] for m in ctx.subfield_degrees}
    digest = hashlib.sha256(json.dumps(mps).encode()).hexdigest()
    assert digest == MINIMAL_POLYNOMIALS[(p, a, n)]
