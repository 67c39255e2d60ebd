import sys

import pytest


@pytest.fixture
def forbid_enumeration_above(monkeypatch):
    """forbid(cap) makes every enumeration of S_n with n > cap fail the test:
    each reference to all_permutations or sn_index in the package's modules
    is wrapped, so a cap checked only after S_n was built is caught."""

    def forbid(cap):
        for key, module in list(sys.modules.items()):
            if key.split(".")[0] != "cycleshuffles":
                continue
            for name in ("all_permutations", "sn_index"):
                fn = vars(module).get(name)
                if fn is None:
                    continue

                def guarded(n, *args, _fn=fn, _name=name):
                    if n > cap:
                        pytest.fail(f"{_name}({n}) enumerated S_{n} above the cap {cap}")
                    return _fn(n, *args)

                monkeypatch.setattr(module, name, guarded)

    return forbid
