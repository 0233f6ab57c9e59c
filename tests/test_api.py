import os
import re

import twinrep


def test_all_names_resolve():
    missing = [name for name in twinrep.__all__ if not hasattr(twinrep, name)]
    assert missing == []


def test_all_names_are_documented():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    missing = [name for name in twinrep.__all__
               if not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert missing == []
