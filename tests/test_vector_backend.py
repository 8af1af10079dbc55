"""The retired vector backend's identity sweep, kept as a pin (DESIGN.md §4h).

The scalar engine is the only execution path.  The vectorized backend
it replaced was held to *bit-identity* with it: on every evaluated
preset x workload pair, a vector run had to produce the same
:meth:`Machine.state_fingerprint` and the same deterministic
:class:`SimulationResult` fields as the scalar run.  The digests below
are those surfaces, recorded while both backends existed and agreed on
every cell.  The one remaining path must keep producing them, so the
retirement provably moved no cell, and a later change that moves one
fails here as well as in the coarser quick-scale golden.  A second
table pins two-core runs of the producers the quick golden never runs
on two cores, so the order in which concurrent jobs draw their steps
is pinned too.

Re-record (only when a change *intentionally* alters simulation
semantics, as for ``tests/golden/``) with::

    PYTHONPATH=src python tests/test_vector_backend.py --record
"""

import dataclasses

import pytest

from repro import perf
from repro.config import EVALUATED_CONFIG_NAMES
from repro.core import Runner
from repro.harness.common import HarnessScale, build_config
from repro.metrics.registry import payload_digest
from repro.workloads import EVALUATED_WORKLOADS, make_workload

SEED = 17

# Small enough that one run takes a fraction of a second, large enough
# that every run crosses warmup, retires jobs, and truncates one.
TINY = HarnessScale(
    name="vec-tiny", dataset_pages=2048, num_cores=1, warmup_us=100.0,
    measurement_us=500.0, zipf_s=1.8, workloads=EVALUATED_WORKLOADS,
)

# "<workload>-<preset>" -> payload_digest([state fingerprint,
# canonical result dict]) of the single-core TINY run.
IDENTITY_DIGESTS = {
    "arrayswap-astriflash": "8e4c78503c86d511",
    "arrayswap-astriflash-ideal": "54826b79d0908613",
    "arrayswap-astriflash-nodp": "af2616f592cf0728",
    "arrayswap-astriflash-nops": "71b20bf2ad4038b1",
    "arrayswap-dram-only": "b435a45187a444b9",
    "arrayswap-flash-sync": "90d12b8551d54807",
    "arrayswap-os-swap": "83bfeba8eed28f30",
    "hashtable-astriflash": "28f9df8c4a80a5f1",
    "hashtable-astriflash-ideal": "c47e1e084f0d3717",
    "hashtable-astriflash-nodp": "677418bc0173893e",
    "hashtable-astriflash-nops": "ea84d86ede08e7be",
    "hashtable-dram-only": "5fcfde1ac3a66fca",
    "hashtable-flash-sync": "4d9bddb9acf1144c",
    "hashtable-os-swap": "44084273df21c240",
    "masstree-astriflash": "1d9145d3af005d0f",
    "masstree-astriflash-ideal": "ef1fd0255ba5a846",
    "masstree-astriflash-nodp": "72210e3ae502cc24",
    "masstree-astriflash-nops": "7e378ee7916db488",
    "masstree-dram-only": "b8971113508959df",
    "masstree-flash-sync": "b7f348b1fa70bb71",
    "masstree-os-swap": "55447e252cae6a28",
    "rbtree-astriflash": "36a82af4f4fc84e4",
    "rbtree-astriflash-ideal": "70a8df3716739d6c",
    "rbtree-astriflash-nodp": "8d17f776d4102d50",
    "rbtree-astriflash-nops": "ac7493b0e3260ebe",
    "rbtree-dram-only": "bafc0088796ea4e9",
    "rbtree-flash-sync": "214830b102a97a1c",
    "rbtree-os-swap": "3bcc15f85ebe8546",
    "silo-astriflash": "ac2dca9554de2cfb",
    "silo-astriflash-ideal": "35f162cd2fb7fe8a",
    "silo-astriflash-nodp": "59440881410eb4a5",
    "silo-astriflash-nops": "c773391704555743",
    "silo-dram-only": "e370c06093f23776",
    "silo-flash-sync": "9701dc3607617d6c",
    "silo-os-swap": "b0e3da59fc3137d4",
    "tatp-astriflash": "5b17dbc9ece23aea",
    "tatp-astriflash-ideal": "3f5426496a6e271c",
    "tatp-astriflash-nodp": "ec22fc974966ac79",
    "tatp-astriflash-nops": "fe6b7d5b2382daeb",
    "tatp-dram-only": "4db8464a95d98507",
    "tatp-flash-sync": "15cc8750c2f1b482",
    "tatp-os-swap": "595b0216c12c1f5a",
    "tpcc-astriflash": "a5e55aa050a353ed",
    "tpcc-astriflash-ideal": "9af6dea5b106f823",
    "tpcc-astriflash-nodp": "81ca8b3296ef6e93",
    "tpcc-astriflash-nops": "ee7e56bb53c887f7",
    "tpcc-dram-only": "1f4491673d885d59",
    "tpcc-flash-sync": "2cad4fae51187c07",
    "tpcc-os-swap": "5947e39251fa0a79",
}


# Two cores interleave the step draws of concurrent jobs on each
# workload's shared random streams (and Silo's OCC leaf versions).
# "<workload>-<preset>" -> identity digest of the two-core TINY run,
# for the producers the quick golden does not run at two cores.
TINY_2CORE = dataclasses.replace(TINY, name="tiny-2core", num_cores=2)
TWO_CORE_DIGESTS = {
    "rbtree-astriflash": "23f691b5e8f2fab4",
    "rbtree-flash-sync": "ed5dd0e2a7651e62",
    "rbtree-os-swap": "cf13e87aaf5a558a",
    "hashtable-astriflash": "59b26ee1de4f45c8",
    "hashtable-flash-sync": "3574b00e3373cc81",
    "hashtable-os-swap": "2f2e6b982b4c287d",
    "silo-astriflash": "978426b88fb05f74",
    "silo-flash-sync": "0e77071dd7105858",
    "silo-os-swap": "7854077afdb52782",
    "masstree-astriflash": "036118014f39919e",
    "masstree-flash-sync": "9f01242d0ddc29a5",
    "masstree-os-swap": "a74e8563aac79c74",
    "kvstore-astriflash": "af6f9c765aab1e91",
    "kvstore-flash-sync": "cb583636094282c5",
    "kvstore-os-swap": "2833afa6d7d08fad",
}


def identity_digest(config_name, workload_name, scale=TINY):
    config = build_config(config_name, scale)
    workload = make_workload(workload_name, scale.dataset_pages,
                             seed=SEED, zipf_s=scale.zipf_s)
    runner = Runner(config, workload)
    result = runner.run()
    return payload_digest([runner.machine.state_fingerprint(),
                           perf.canonical_result_dict(result)])


@pytest.mark.parametrize("config_name", EVALUATED_CONFIG_NAMES)
@pytest.mark.parametrize("workload_name", EVALUATED_WORKLOADS)
def test_vector_bit_identical_to_scalar(config_name, workload_name):
    """Every preset x workload: same fingerprint, same deterministic
    result fields as when both backends were compared."""
    assert identity_digest(config_name, workload_name) == \
        IDENTITY_DIGESTS[f"{workload_name}-{config_name}"]


@pytest.mark.parametrize("config_name",
                         ["astriflash", "flash-sync", "os-swap"])
@pytest.mark.parametrize("workload_name",
                         ["rbtree", "hashtable", "silo", "masstree",
                          "kvstore"])
def test_two_core_interleaving_is_pinned(config_name, workload_name):
    """Lazily drawn steps of jobs running on two cores interleave in
    the same order as when these digests were recorded."""
    assert identity_digest(config_name, workload_name, TINY_2CORE) == \
        TWO_CORE_DIGESTS[f"{workload_name}-{config_name}"]


if __name__ == "__main__":
    import sys

    if "--record" not in sys.argv[1:]:
        sys.exit("usage: test_vector_backend.py --record")
    for workload_name in EVALUATED_WORKLOADS:
        for config_name in EVALUATED_CONFIG_NAMES:
            digest = identity_digest(config_name, workload_name)
            print(f'    "{workload_name}-{config_name}": "{digest}",')
    for key in TWO_CORE_DIGESTS:
        workload_name, config_name = key.split("-", 1)
        digest = identity_digest(config_name, workload_name, TINY_2CORE)
        print(f'    "{key}": "{digest}",')
