"""Spans around the public functions of each layer, for the traced run.

``install`` replaces the layer functions with wrappers that record one
span per call: layer name, start, end, parent span and item id.  They are
replaced on the ``lorentzpoly`` package, which ``certify-files`` calls, and
on ``lorentzpoly.sweeps``, which calls them by the names it imports, so a
traced pass runs the same ``run_sweep`` as an untraced one.
``m_convex_failure`` is replaced inside ``lorentzpoly.certify``, where
``lorentzian_certify`` calls it.  The item id of a sweep span is the
instance that ``sweeps._check_instance`` is checking.  Spans stay in memory
until ``write``.  Nothing inside ``src/`` changes.
"""

import json
import time

import lorentzpoly as lp
import lorentzpoly.certify as certify_module
import lorentzpoly.sweeps as sweeps_module

import checks

LAYERS = {
    "symmetric.generate": ("schur", "skew_schur", "schur_p", "verma_truncated_normalized"),
    "schubert.generate": ("schubert", "schubert_dual", "grothendieck",
                          "homogeneous_grothendieck", "key_polynomial", "degree_polynomial"),
    "polynomials.normalize": ("normalize",),
    "polynomials.parse": ("parse_polynomial",),
    "certify.certify": ("lorentzian_certify",),
    "certify.inequality": ("root_direction_violations",),
    "certify.verify": ("verify_certificate",),
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, item]
        self.stack = []
        self.item = None
        self.parsed_bytes = 0
        self.certified = []  # (polynomial, certificate) per certify call

    def wrap(self, name, function):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.item]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if name == "certify.certify":
                self.certified.append((args[0], result))
            elif name == "polynomials.parse":
                self.parsed_bytes += len(args[0])
            return result
        return traced

    def labelled(self, check_instance):
        def traced(spec, instance_id, payload):
            self.item = f"{spec.family}/{spec.mode}:{instance_id}"
            try:
                return check_instance(spec, instance_id, payload)
            finally:
                self.item = None
        return traced

    def install(self):
        for layer, names in LAYERS.items():
            for name in names:
                for module in (lp, sweeps_module):
                    if hasattr(module, name):
                        setattr(module, name, self.wrap(layer, getattr(module, name)))
        certify_module.m_convex_failure = self.wrap(
            "certify.m_convex", certify_module.m_convex_failure)
        sweeps_module._check_instance = self.labelled(sweeps_module._check_instance)

    def layer_metrics(self, instances):
        """Per-layer times and counts of one traced pass."""
        total = dict.fromkeys([*LAYERS, "certify.m_convex"], 0.0)
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
        support_terms = pairs = candidates = 0
        for poly, certificate in self.certified:
            size = len(poly.terms)
            support_terms += size
            if "nonnegative_coefficients" in certificate.checks:
                pairs += size * (size - 1) // 2
            if "m_convex_support" in certificate.checks and (certificate.degree or 0) >= 2:
                candidates += len(checks.hessian_candidates(poly.support(), poly.arity))
        hessians = total["certify.certify"] - total["certify.m_convex"]
        return {
            "certify.m_convex_s": total["certify.m_convex"],
            "certify.m_convex_ns_per_pair": 1e9 * total["certify.m_convex"] / pairs if pairs else 0.0,
            "certify.hessians_s": hessians,
            "certify.hessians_us_per_candidate": 1e6 * hessians / candidates if candidates else 0.0,
            "schubert.generate_s": total["schubert.generate"],
            "symmetric.generate_s": total["symmetric.generate"],
            "polynomials.normalize_s": total["polynomials.normalize"],
            "polynomials.parse_s": total["polynomials.parse"],
            "polynomials.parse_bytes": self.parsed_bytes,
            "certify.verify_s": total["certify.verify"],
            "certify.inequality_s": total["certify.inequality"],
            "sweeps.instances": instances,
            "certify.targets": len(self.certified),
            "certify.support_terms": support_terms,
            "certify.exchange_pairs": pairs,
            "certify.hessian_candidates": candidates,
        }

    def write(self, path):
        keys = ("name", "start", "end", "parent", "item")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)

