"""Golden output: every CLI command on every file in graphs/, both formats.

Each case pins the exit code and the sha256 of standard output and of
standard error, so a change to the arithmetic underneath the commands, or
to the command path around them, must leave every report and every
diagnostic byte-identical.  The stdout hashes were made with the Fraction
cycle algebra before the integer E*-coordinate core replaced it; the
stderr hashes were made before the commands shared one path in ``run``.
"""

import hashlib

import pytest

from fixtures import graph_file
from splicegenus.cli import run
from splicegenus.graph import DualData

# a character other than the trivial one where the group allows it
CHARS = {"a3.dsl": "3", "d4.json": "1,1", "e8.json": "",
         "exmc.json": "3", "fig1.json": "5,5"}

COMMANDS = ["validate", "invariants", "hilbert", "cv", "pg", "pg-uac", "h1",
            "monomial-check", "emit-equations", "oracle-verify",
            "fundamental-cycle"]


def _argv(command, name, fmt):
    argv = [command, "--input", graph_file(name), "--format", fmt]
    if command in ("hilbert", "cv", "h1"):
        argv += ["--char", CHARS[name]]
    return argv


GOLDEN = {
    "a3.dsl cv json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "1dbd8ccdaecf6e0d895049e2cf202a66c791c4b5c8d765cf633ac6afd9a80b1e"),
    "a3.dsl cv text":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "1dbd8ccdaecf6e0d895049e2cf202a66c791c4b5c8d765cf633ac6afd9a80b1e"),
    "a3.dsl emit-equations json":
        (0, "9cfc184ccd54420034b9636125a1c110ba82eabc621f9dd16da24b62949c67ed",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl emit-equations text":
        (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl fundamental-cycle json":
        (0, "bdd210c8179768e43004e6a1682a4a684bc505ae1bc556c96657144d011c6fd6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl fundamental-cycle text":
        (0, "cea5c5fe0b858e3009d036afe182c8c4a29b4154d3ad260ddbd215581ae27f4a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl h1 json":
        (0, "74cf42741e74c4735bd8021f5a9d7d97f8d7b74c75405b5ffe4812dde36d4d01",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl h1 text":
        (0, "a196fbe54010446a7aa105b26583e689049ad24b0f7849c868f441a056049ee6",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl hilbert json":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "1dbd8ccdaecf6e0d895049e2cf202a66c791c4b5c8d765cf633ac6afd9a80b1e"),
    "a3.dsl hilbert text":
        (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "1dbd8ccdaecf6e0d895049e2cf202a66c791c4b5c8d765cf633ac6afd9a80b1e"),
    "a3.dsl invariants json":
        (0, "90859ce12c414fcc7d0192784d1f353f8358f13dfc3750807b34e0ee1cf97da6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl invariants text":
        (0, "4b479a878bac9729188e1a4d2727789e319f17ed4245e68f749f914de5033108",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl monomial-check json":
        (0, "4730cbaad5deea9974b835b903c01aead5219d111d782c5e7347ba9fb2638519",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl monomial-check text":
        (0, "a25c7a3a34e9d464b79955cb017ada8befafa67e8e8f0409f16cc1f05c734545",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl oracle-verify json":
        (0, "54f26832327995f07d71a5de4797271856b7ab5e133f0223872ae2b999517b01",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl oracle-verify text":
        (0, "5380b6f4f3756163cf259320042469c083b82efb3ebb2d50a392be611b7201ed",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "a3.dsl pg json":
        (0, "9ae7e8035ca52746fce31d720d128b3f298e4d882784ebfe0d8434802a87db71",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl pg text":
        (0, "dc5acb9d14b5225ee94a572898dbfffb1d61ec5fe67941f95779f6afddee75ea",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl pg-uac json":
        (0, "9ae7e8035ca52746fce31d720d128b3f298e4d882784ebfe0d8434802a87db71",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl pg-uac text":
        (0, "2352bf644109f7486e8916374bcddccd033d7e2d2a6b219286089a34ae9e951c",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl validate json":
        (0, "7033c2b8d2560410034e7e18855a6a9250bbe852ac35ba201d4f849b863fb10f",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "a3.dsl validate text":
        (0, "f8f527014733c6a2783154ed119818a7e0b2d3bb9db698b598dea2194767761d",
         "49f045f7c88268b9b1913cbd666f72f53535e7b0b43e1f89faef4391e9c602aa"),
    "d4.json cv json":
        (0, "965eb9cadb587c16b46ce7fa1454a4065a957eb1cb72facf4809b42d075dac0b",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json cv text":
        (0, "5c600c7289ae871f5fe641e3cf76ec1c44216d9ef620473b0b8acce1ed5c82a7",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json emit-equations json":
        (0, "03f4654d03ed19ae886f31e31762b8010c1d946d35b1469f042e8e6aa1c64097",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json emit-equations text":
        (0, "352f762fd18c680cb9f9df1573656ec313fa718638e488ed399d9742a8a5756e",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json fundamental-cycle json":
        (0, "74907af7fa7672c0227d953b327421cf9c6f7eb011c9b483a13df183d35b26f9",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json fundamental-cycle text":
        (0, "3a3309029f193991f2484fbab7c43b777c6c7d53eaec62f3b05f76366d90609d",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json h1 json":
        (0, "49cbb8b0568bf3c40f0797065880966b892b8428218fa84da33df19f0370ae8a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json h1 text":
        (0, "a196fbe54010446a7aa105b26583e689049ad24b0f7849c868f441a056049ee6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json hilbert json":
        (0, "2a1a8c613c9c827cbaca43ec597170a38f685813b804f3ae05fc049b54920a23",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json hilbert text":
        (0, "4af76efaaab8e4b4209f7e0ffe988dbe4df571e79277f86f3165d7137fc6e2d7",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json invariants json":
        (0, "be59e327ce3c203aabef247b0c5700aec97461b6f0717b5651e16f5410b47b28",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json invariants text":
        (0, "a7116a261d33c0a42e205ca609263751bd6e8d85302367110f3952cb9b3e9493",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json monomial-check json":
        (0, "7dccce2909678fecf42c5582f8b3456351a2d8d5d24ce54d27997bc853fc7ffc",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json monomial-check text":
        (0, "ee90ca8877caf0b6f1d1c427559949ad97da7ff8efd9a49ec6ace97b98c33d4b",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json oracle-verify json":
        (0, "999bad84a30b3a1a05abd98b3d8b77587e7fd4eae9e12a076a37a3981e60826e",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json oracle-verify text":
        (0, "5380b6f4f3756163cf259320042469c083b82efb3ebb2d50a392be611b7201ed",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json pg json":
        (0, "e7835c31bf9b57a01c162b3eaa1d96a7f631da10e6f88327df8c53035b37e591",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json pg text":
        (0, "dc5acb9d14b5225ee94a572898dbfffb1d61ec5fe67941f95779f6afddee75ea",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json pg-uac json":
        (0, "e7835c31bf9b57a01c162b3eaa1d96a7f631da10e6f88327df8c53035b37e591",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json pg-uac text":
        (0, "f7dec8d14f60d1a3480380beead396c109e04d6e3edd10e11db2e3046663e4f6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json validate json":
        (0, "35bea5ff539b584af997ddf8003d66fe190f5ab3040fd68874e4dc8ffbb08e65",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "d4.json validate text":
        (0, "0b2c855ee58d9a9c8b0dd9b9634f355fdeb67d8f52c33e1961cd8b9919ffd3da",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json cv json":
        (0, "374e7f5a3c20cf4a34635924312d7fd1d8015391d1d2e273f83d95b58cca7ab4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json cv text":
        (0, "8b78dfb45374a8dbfce11f9ac681e33ccb64559f7cfa6e560f02742a5bb0c878",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json emit-equations json":
        (0, "d3f632024701ae1904e6f65133e0d0400c9c23c08d735584a1c0c8ee8f21a5b9",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json emit-equations text":
        (0, "027fea1eb3376bea7e2a02c46ababc6dc24a969bc6833f7c37cf9b037e680ca1",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json fundamental-cycle json":
        (0, "0dc1b232104e4f771c8404f4da8566f8c5f81bd396a5a9a78cd0941c89d65844",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json fundamental-cycle text":
        (0, "5fcab8b1ffa1c74e85a4bc03eb94f505f21c31674f8809350c2aacc78a5327d3",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json h1 json":
        (0, "eeb68672622c1dd08d61436cd30c498f143f8e98424a8de728e7abb011551f35",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json h1 text":
        (0, "a196fbe54010446a7aa105b26583e689049ad24b0f7849c868f441a056049ee6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json hilbert json":
        (0, "f287d71e44d4b52d6c27dcbdde449f790c82947bd9fef87995af234ad1b87ed6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json hilbert text":
        (0, "664be23098ee7fd7e9a80e872e18c53429db65355a741cf2b93ce78b717c489a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json invariants json":
        (0, "d6e9a347f18e1a65a821ec70d1886cde19d9231a88da22b94ccc4065326e74e4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json invariants text":
        (0, "cc01670b094f21c7d96cb33254d60d8224bbfcaeb28db60d5596ee8a038c2d7e",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json monomial-check json":
        (0, "15bbd7ad5df71b284bd802ed4df0fd0944f52b6b3caa8a01b7a7d0c86511d810",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json monomial-check text":
        (0, "251933aa989beb68ab56e65737b5faddd4ecd4dc32aeead2d71a063bb48f898a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json oracle-verify json":
        (0, "78d3de93e0731b386e4fa84ed2b927a32761346de9110930645365655c042dbb",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json oracle-verify text":
        (0, "5380b6f4f3756163cf259320042469c083b82efb3ebb2d50a392be611b7201ed",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json pg json":
        (0, "c281fac33cc98aa8ff14fccc4e3e37b9a3f7dde3a35ca97def9fd48f65fdbbd0",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json pg text":
        (0, "dc5acb9d14b5225ee94a572898dbfffb1d61ec5fe67941f95779f6afddee75ea",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json pg-uac json":
        (0, "c281fac33cc98aa8ff14fccc4e3e37b9a3f7dde3a35ca97def9fd48f65fdbbd0",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json pg-uac text":
        (0, "bd59898c539af2cfc3e52eccf9d2158c7587ba26b384f429da5f6628776637ab",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json validate json":
        (0, "2b3f7fcf98f1f26d20282397dca1bba742a6a70f48162c64421d1622e010bfea",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "e8.json validate text":
        (0, "d2b3598404cbfa2ba754a4527b7f723a58b6caed0b90a9b77dd3ece1a595d082",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json cv json":
        (0, "9eddee212229e9ae7e36c9c755f5e2083667a72a8446b905dac9c7ca68a2389d",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json cv text":
        (0, "ce451ce70b950ace58de540ace5e414d72ef024ded60a9c4e49e886eaac8d37d",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json emit-equations json":
        (0, "3a793f13409a8c31dcd284a692b1204742cfdbf96dab440b34b962db7c6a4a54",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json emit-equations text":
        (0, "4ab21824e6b6be9ad0dfb488d586f6b576ee46c7fcbde733fb8a556065d40179",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json fundamental-cycle json":
        (0, "298856e8604f595499040a8bf7e435fd39d756b5ae0ff62b87948057c2d08619",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json fundamental-cycle text":
        (0, "ca4659f50c2c7f69afbf24a2e2763c8521d1519ab6e0b4afd12006ccfb714238",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json h1 json":
        (0, "a086ce0ac77d0d7b8aeb7bf5c301281bbd28a6788693c0063d470bfb09646e72",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json h1 text":
        (0, "a196fbe54010446a7aa105b26583e689049ad24b0f7849c868f441a056049ee6",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json hilbert json":
        (0, "444416b698453d3cffb6e91cea67c745b592c438173f95e765397100b5ddf2ae",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json hilbert text":
        (0, "65edd227a5f6fde507b4a2d9394b76dda4202681f4c303b4da656c325fb21791",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json invariants json":
        (0, "f410ed1568b11c1631dcee6015dd7cb3b99f04a8b45b6777362c9e477642d65a",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json invariants text":
        (0, "802480533485a1a8d44b0fa17d2e08fa0e4f3dd32bb7cd0d14eb45611c140129",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json monomial-check json":
        (0, "77457f973de7172834ecb4690c8a5b37346c095cb7768a6e9911257ca4a7e981",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json monomial-check text":
        (0, "7fb553ffaa7e296dacb465c3fe54c339415eee94a3ff3cc05b0d8c2ba40fd12d",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json oracle-verify json":
        (0, "f9bb334b8f8cdf4e0afb4de31e9d1a564ed748f04d0f8883f029a91e170c0caf",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json oracle-verify text":
        (0, "5380b6f4f3756163cf259320042469c083b82efb3ebb2d50a392be611b7201ed",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json pg json":
        (0, "918b17bd4dce52cf394736baf5099bc58f68b4bb20445db8802b0fe2dfa5cf56",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json pg text":
        (0, "d5f751539d813568e2b36168b7619146273a98b1f9878546e2003359ec4f9344",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json pg-uac json":
        (0, "918b17bd4dce52cf394736baf5099bc58f68b4bb20445db8802b0fe2dfa5cf56",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json pg-uac text":
        (0, "2f746e682725ffd547207a4603dfa86feb8ed83ffa75057262bce5ffeb720d18",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json validate json":
        (0, "95f0cd92a03b867d71c3ff9168cd13b6e38e840c65f3634610ffc250276b2942",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "exmc.json validate text":
        (0, "08938955c16d4b961c1fa781daebda185c6fbf10240224a7f0a4a5b0b6df3ad3",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json cv json":
        (0, "7664a13fed7a9c07f2cb105a50dd9be0a9963ee9978a89b568a717f8a0065630",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json cv text":
        (0, "8adaf7332c42c99e57ddc35fc7d6403b5c3d4db239380281f6861c18f7971dc8",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json emit-equations json":
        (0, "d640cd7685a9200d03a2a4ff5706d0964f47b794381b20e8935fc2b044057b93",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json emit-equations text":
        (0, "9171c1e86e9bf8d933a65b2d8b068a4d17972538cc0bf0a890edac1fc357aca1",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json fundamental-cycle json":
        (0, "25653df9aa0c59d4a9d929d3af344e2bf27ae7168483f6d92fdae0bcb76c199d",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json fundamental-cycle text":
        (0, "9703d0c2d486614f14021653abdf11d1afc0daf119e7f340ce9551b37f4b53d3",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json h1 json":
        (0, "43e73bb70f867587066356a161e022ae4fd687bcf6d1c30af1be34a84fdc9836",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json h1 text":
        (0, "5ed5e3dfa45ec75d773ed89092a159eb6cfb0d909bc10ef085c4f1a60cb69d43",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json hilbert json":
        (0, "ce3eb7155becada31f5bfe344f8279bce5aea1921c95178ca0adda73e665c384",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json hilbert text":
        (0, "04ba74ff8f7475f1f539ba2dae152ccb10035ee631e2493e8755ed9c7700cbf4",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json invariants json":
        (0, "135ba12316c70f0094873449c2668e12ab598d6260ede213b804f219bbe35475",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json invariants text":
        (0, "b4a67e3628c6fab7009841555794efc23ef51fd7c93331af18ac71bdcdeb2fa3",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json monomial-check json":
        (0, "d4b8f0d994f3e3dfb9748269dc947307a5e5aa730bd40707f73d1e50fdaaf574",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json monomial-check text":
        (0, "6af7eab1d9c67c8fbf9e53c5779619fa31507b73cca53154f86b30a30de2211c",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json oracle-verify json":
        (0, "084c2ef2ee385be0a5781fcc3e4da0cbefa4f6b2d0bdd80a12e1726b611ff06b",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json oracle-verify text":
        (0, "5380b6f4f3756163cf259320042469c083b82efb3ebb2d50a392be611b7201ed",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json pg json":
        (0, "02647bf75c804221b684a52c58cccb1d974b3920e3325f27172cf51a41f32192",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json pg text":
        (0, "abbd76146c23efd400e6dde68d489d7c2cd086bebe8bb3f67b090272a0330f3b",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json pg-uac json":
        (0, "02647bf75c804221b684a52c58cccb1d974b3920e3325f27172cf51a41f32192",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json pg-uac text":
        (0, "39954eb47aa0bc9ea8396e229c5bfa755305b56af0400aa6951443d6de14adba",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json validate json":
        (0, "ad0d706be408461625e56ec3dbdad265a43c9f3082751acf70a4eb8235a9e9ce",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "fig1.json validate text":
        (0, "2ddf427bcada0674e6623d2f529e686f8ed4d70786c51765cbe8363552e22a39",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_stdout_and_exit_code_pinned(capsys, key):
    name, command, fmt = key.split()
    code = run(_argv(command, name, fmt))
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == GOLDEN[key]


@pytest.mark.parametrize("name", sorted(CHARS))
def test_cv_needs_no_adjugate_products(monkeypatch, capsys, name):
    # Route A reads N_v from K's numerator and c_1's, so cv keeps its
    # output with DualData.numerators out of reach
    def no_products(*args, **kwargs):
        raise AssertionError("DualData.numerators called")

    monkeypatch.setattr(DualData, "numerators", no_products)
    for fmt in ("text", "json"):
        code = run(_argv("cv", name, fmt))
        out, err = capsys.readouterr()
        assert (code, hashlib.sha256(out.encode()).hexdigest(),
                hashlib.sha256(err.encode()).hexdigest()) == GOLDEN[f"{name} cv {fmt}"]


def test_golden_covers_every_command_file_and_format():
    expected = {f"{name} {command} {fmt}" for name in CHARS
                for command in COMMANDS for fmt in ("text", "json")}
    assert set(GOLDEN) == expected
