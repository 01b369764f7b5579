"""The service catalogue (paper §3.2).

"The main purpose of service catalogue is to support discovery, monitoring
and annotation of computational web services. It is implemented as a web
application with interface and functionality similar to modern search
engines."

Pieces:

- :mod:`repro.catalogue.index` — an inverted index with TF-IDF cosine
  ranking, built from scratch;
- :mod:`repro.catalogue.snippets` — search-result snippets with
  highlighted query terms;
- :mod:`repro.catalogue.catalogue` — the catalogue proper: publish by URI
  (the description is retrieved through the unified REST API), full-text
  search with tag/availability filters, pooled pinging, user tagging,
  entries journaled through a state spine;
- :mod:`repro.catalogue.service` — the catalogue as a RESTful web host.
"""

from repro.catalogue.catalogue import Catalogue, CatalogueEntry
from repro.catalogue.index import InvertedIndex, tokenize
from repro.catalogue.service import CatalogueService

__all__ = ["Catalogue", "CatalogueEntry", "CatalogueService", "InvertedIndex", "tokenize"]
