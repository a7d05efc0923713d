"""Cross-check the three coupon-collector objective forms and sample the
Hessian spectrum supporting the convexity conjecture.

Usage: python scripts/coupon_probe.py [N] [trials] [seed]
"""

import json
import sys
from fractions import Fraction

import numpy as np

from convexdesk.special import (
    coupon_convexity_probe,
    coupon_pn_ie,
    coupon_pn_integral,
    coupon_pn_perm,
)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    trials = int(sys.argv[2]) if len(sys.argv) > 2 else 200
    seed = int(sys.argv[3]) if len(sys.argv) > 3 else 42

    x_exact = tuple(Fraction(k + 1) for k in range(min(n, 6)))
    print(json.dumps({
        "exact_point": [str(v) for v in x_exact],
        "perm": str(coupon_pn_perm(x_exact)),
        "ie": str(coupon_pn_ie(x_exact)),
        "forms_equal": coupon_pn_perm(x_exact) == coupon_pn_ie(x_exact),
    }))

    rng = np.random.default_rng(seed)
    x = tuple(float(v) for v in 10.0 ** rng.uniform(-0.5, 0.5, n))
    ie = float(coupon_pn_ie(x))
    integral = coupon_pn_integral(x)
    print(json.dumps({"x": list(x), "ie": ie, "integral": integral,
                      "discrepancy": abs(ie - integral)}))

    rep = coupon_convexity_probe(n, trials, seed)
    print(json.dumps({
        "trials": rep.trials, "seed": rep.seed,
        "min_hessian_eig": rep.min_hessian_eig,
        "max_inv_hessian_eig": rep.max_inv_hessian_eig,
        "min_log_hessian_eig": rep.min_log_hessian_eig,
        "worst_point": list(rep.min_eig_point),
    }))


if __name__ == "__main__":
    main()
