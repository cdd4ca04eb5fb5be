"""Recompute the fixed-seed fingerprint and store it as the reference.

    python3 bench/write_fingerprint.py

Only for a change that alters the model's behaviour on purpose; say so in
the change's description.
"""

import json
import sys

import env

if __name__ == "__main__":
    if not env.configure():
        sys.exit(f"error: no program source at {env.SRC}/vem")
    import checks
    fp = checks.compute_fingerprint()
    with open(checks.FINGERPRINT_PATH, "w", encoding="utf-8") as fh:
        json.dump(fp, fh, indent=1)
        fh.write("\n")
    print(json.dumps(fp))
