"""Service discovery, monitoring and annotation (paper §3.2) — plus the
security mechanism (§3.4) guarding a published service.

1. run two containers (different "organizations") with several services;
2. publish them in the catalogue with tags; search like a search engine
   (ranked hits, highlighted snippets), filter by tag and availability;
3. watch the pinger mark a service unavailable after undeployment;
4. protect a service with allow/deny lists and call it with a certificate.

Run:  python examples/catalogue_demo.py
"""

import time

from repro.catalogue import Catalogue, CatalogueService
from repro.client import ServiceProxy
from repro.container import ServiceContainer
from repro.http.client import RestClient
from repro.http.registry import TransportRegistry
from repro.security import AccessPolicy, CertificateAuthority, client_headers

SERVICES = [
    ("invert-matrix", "Matrix inversion", "Error-free inversion of ill-conditioned matrices", ["cas", "linear-algebra"]),
    ("simplex-lp", "LP solver", "Linear programming with a two-phase simplex method", ["optimization"]),
    ("xray-curves", "Scattering curves", "Debye scattering curves for carbon nanostructures", ["physics"]),
    ("nnls-fit", "Mixture fitting", "Nonnegative least squares fitting of measured spectra", ["optimization", "physics"]),
]


def main() -> None:
    registry = TransportRegistry()
    org_a = ServiceContainer("org-a", handlers=2, registry=registry)
    org_b = ServiceContainer("org-b", handlers=2, registry=registry)
    catalogue_service = CatalogueService(registry=registry)
    try:
        for index, (name, title, text, tags) in enumerate(SERVICES):
            container = org_a if index % 2 == 0 else org_b
            container.deploy(
                {
                    "description": {
                        "name": name,
                        "title": title,
                        "description": text,
                        "inputs": {"x": {"schema": True}},
                        "outputs": {"y": {"schema": True}},
                    },
                    "adapter": "python",
                    "config": {"callable": lambda x: {"y": x}},
                }
            )

        # --- publish & search ---------------------------------------------
        catalogue_base = catalogue_service.local_base
        catalogue: Catalogue = catalogue_service.catalogue
        for index, (name, _, _, tags) in enumerate(SERVICES):
            container = org_a if index % 2 == 0 else org_b
            catalogue.publish(container.service_uri(name), tags=tags)
        print(f"catalogue at {catalogue_base} with {len(catalogue.entries())} services\n")

        for query in ("matrix inversion", "optimization solver", "carbon spectra"):
            print(f"search: {query!r}")
            for hit in catalogue.search(query, limit=3):
                print(f"  {hit['name']:14s} [{','.join(hit['tags'])}] {hit['snippet'][:76]}")
            print()

        rest = RestClient(registry, base=catalogue_base)
        hits = rest.get("/search", query={"q": "fitting", "tag": "physics"})["hits"]
        print("REST search with tag filter 'physics':", [h["name"] for h in hits])

        # --- monitoring ----------------------------------------------------
        org_b.undeploy("simplex-lp")
        catalogue.start_pinger(interval=0.1)
        time.sleep(0.3)
        catalogue.stop_pinger()
        dead = [e.name for e in catalogue.entries() if not e.available]
        print("\npinger marked unavailable:", dead)
        alive = catalogue.search("", available_only=True)
        print("available-only listing:", [h["name"] for h in alive])

        # --- security ------------------------------------------------------
        ca = CertificateAuthority("CN=Demo CA")
        org_a.enable_security(ca)
        org_a.set_policy("invert-matrix", AccessPolicy(allow={"CN=alice"}))
        proxy = ServiceProxy(org_a.service_uri("invert-matrix"), registry)
        try:
            proxy.describe()
        except Exception as error:
            print(f"\nanonymous call rejected: {error}")
        alice = proxy.with_headers(client_headers(certificate=ca.issue("CN=alice")))
        print("with alice's certificate:", alice.describe().title)
    finally:
        catalogue_service.shutdown()
        org_a.shutdown()
        org_b.shutdown()


if __name__ == "__main__":
    main()
