"""Per-rule fixture tests: each rule fires on its positive fixture and
stays silent on a near-miss that a sloppier matcher would flag."""

import pytest

from repro.analysis.simlint import all_rules, lint_module
from repro.analysis.simlint.core import ModuleUnderLint


def findings_for(source, path="lib/module.py", rule=None):
    found = lint_module(ModuleUnderLint(path, source))
    if rule is None:
        return found
    return [f for f in found if f.rule == rule]


# One (rule, positive fixture, near-miss fixture) triple per rule.  The
# positive MUST produce at least one finding of that rule; the near-miss
# MUST produce none.
RULE_FIXTURES = [
    ("SIM001",
     "import time\n\ndef stamp():\n    return time.time()\n",
     "def stamp(sim):\n    return sim.now\n"),
    ("SIM001",  # alias dodging: from-import under another name
     "from time import perf_counter as pc\n\ndef f():\n    return pc()\n",
     "from time import struct_time\n\ndef f(t):\n    return struct_time(t)\n"),
    ("SIM001",  # datetime.now through the common from-import
     "from datetime import datetime\n\ndef f():\n    return datetime.now()\n",
     "from datetime import timedelta\n\ndef f():\n    return timedelta(1)\n"),
    ("SIM002",
     "import random\n\ndef draw():\n    return random.random()\n",
     "def draw(streams):\n    return streams.stream('x').random()\n"),
    ("SIM002",  # a seeded numpy default_rng still bypasses RandomStreams
     "import numpy as np\n\ndef draw(seed):\n"
     "    return np.random.default_rng(seed)\n",
     "from repro.sim.rand import RandomStreams\n\ndef draw(seed):\n"
     "    return RandomStreams(seed).stream('x')\n"),
    ("SIM002",  # numpy global-RNG function
     "import numpy as np\n\ndef draw():\n    return np.random.rand()\n",
     "import numpy as np\n\ndef draw(rng):\n    return rng.random()\n"),
    ("SIM003",
     "def f(nodes):\n    alive = set(nodes)\n    for n in alive:\n"
     "        print(n)\n",
     "def f(nodes):\n    alive = set(nodes)\n    for n in sorted(alive):\n"
     "        print(n)\n"),
    ("SIM003",  # materialising a set literal
     "order = list({3, 1, 2})\n",
     "order = sorted({3, 1, 2})\n"),
    ("SIM003",  # set-typed self attribute
     "class Flush:\n    def __init__(self):\n        self._participants = set()\n"
     "    def order(self):\n        return [n for n in self._participants]\n",
     # order-free reduction over the same attribute must stay silent
     "class Flush:\n    def __init__(self):\n        self._participants = set()\n"
     "    def count(self):\n"
     "        return sum(1 for n in self._participants if n)\n"),
    ("SIM004",
     "def order(items):\n    return sorted(items, key=lambda x: id(x))\n",
     "def order(items):\n    return sorted(items, key=lambda x: x.seq)\n"),
    ("SIM004",  # id() flowing into hash()
     "def digest(obj):\n    return hash(id(obj))\n",
     "def ident(obj):\n    return id(obj)\n"),  # bare id() for identity is fine
    ("SIM005",
     "def total(latencies):\n    pend = set(latencies)\n    return sum(pend)\n",
     "def total(latencies):\n    pend = set(latencies)\n"
     "    return sum(sorted(pend))\n"),
    ("SIM006",
     "def proc():\n    yield -1.0\n",
     "def proc(delay):\n    yield max(0.0, delay)\n"),
    ("SIM006",  # NaN delay
     "def proc():\n    yield float('nan')\n",
     "def proc():\n    yield float(1)\n"),
    ("SIM007",
     "import time\n\ndef proc(sim):\n    time.sleep(0.1)\n    yield 1.0\n",
     # the same blocking call outside a generator is SIM001's problem at
     # most, never SIM007's
     "import time\n\ndef helper():\n    time.sleep(0.1)\n"),
    ("SIM007",  # subprocess inside a process body
     "import subprocess\n\ndef proc():\n    subprocess.run(['ls'])\n"
     "    yield 1.0\n",
     "import shlex\n\ndef proc(cmd):\n    parts = shlex.split(cmd)\n"
     "    yield 1.0\n"),
    ("SIM008",
     "def f(self, queue):\n"
     "    self.tracer.record('depth', value=queue.pop())\n",
     "def f(self, queue):\n    value = queue.pop()\n"
     "    self.tracer.record('depth', value=value)\n"),
    ("SIM008",  # walrus inside span emission
     "def f(self, spans):\n"
     "    spans.begin('halt', t=(n := self.bump()))\n",
     "def f(self, spans):\n    spans.begin('halt', t=self.count)\n"),
    ("SIM009",
     "import os\n\ndef mode():\n    return os.environ.get('REPRO_MODE')\n",
     "import os\n\ndef mode(base):\n    return os.path.join(base, 'mode')\n"),
    ("SIM010",
     "import uuid\n\ndef run_id():\n    return uuid.uuid4().hex\n",
     "import hashlib\n\ndef run_id(seed):\n"
     "    return hashlib.sha256(str(seed).encode()).hexdigest()\n"),
    ("SIM010",  # builtin hash() is PYTHONHASHSEED-salted
     "def bucket(name):\n    return hash(name) % 8\n",
     "import hashlib\n\ndef bucket(name):\n"
     "    return int(hashlib.sha256(name.encode()).hexdigest(), 16) % 8\n"),
    ("SIM002",  # a hand-built numpy generator bypasses RandomStreams too
     "from numpy.random import Generator, PCG64\n\ndef draw(seed):\n"
     "    return Generator(PCG64(seed))\n",
     "from repro.sim.rand import PCG64Stream\n\ndef draw(seed):\n"
     "    return PCG64Stream(seed)\n"),
]


@pytest.mark.parametrize("rule,positive,near_miss", RULE_FIXTURES,
                         ids=[f"{r}-{i}" for i, (r, _, _)
                              in enumerate(RULE_FIXTURES)])
def test_rule_fires_on_positive(rule, positive, near_miss):
    hits = findings_for(positive, rule=rule)
    assert hits, f"{rule} missed its positive fixture"
    assert all(f.rule == rule for f in hits)


@pytest.mark.parametrize("rule,positive,near_miss", RULE_FIXTURES,
                         ids=[f"{r}-{i}" for i, (r, _, _)
                              in enumerate(RULE_FIXTURES)])
def test_rule_silent_on_near_miss(rule, positive, near_miss):
    hits = findings_for(near_miss, rule=rule)
    assert not hits, f"{rule} false-positived: {[f.render() for f in hits]}"


def test_sim002_exempts_the_rand_module():
    source = "import numpy as np\n\nrng = np.random.default_rng()\n"
    assert findings_for(source, path="src/repro/sim/rand.py", rule="SIM002") == []
    assert findings_for(source, path="lib/other.py", rule="SIM002")


def test_sim009_exempts_the_cli_layer():
    source = "import sys\n\nargs = sys.argv[1:]\n"
    assert findings_for(source, path="src/repro/cli.py", rule="SIM009") == []
    assert findings_for(source, path="src/repro/__main__.py", rule="SIM009") == []
    assert findings_for(source, path="src/repro/sim/core.py", rule="SIM009")


def test_finding_severities_match_catalogue():
    # The registry holds exactly the ten per-file rules, in code order.
    assert [r.code for r in all_rules()] == \
        [f"SIM{n:03d}" for n in range(1, 11)]
    assert all(r.description for r in all_rules())
    severity = {r.code: r.severity for r in all_rules()}
    assert severity == {
        "SIM001": "error", "SIM002": "error", "SIM003": "warning",
        "SIM004": "warning", "SIM005": "warning", "SIM006": "error",
        "SIM007": "error", "SIM008": "warning", "SIM009": "warning",
        "SIM010": "error",
    }
    # Findings carry their rule's catalogue severity.
    for fixture in RULE_FIXTURES:
        for f in findings_for(fixture[1]):
            assert f.severity == severity[f.rule]
