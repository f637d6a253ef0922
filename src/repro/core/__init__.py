"""The paper's primary contribution: contrastive metadata classification.

Pipeline stages (Fig. 2 of the paper):

1. term embeddings (``repro.embeddings``) ->
2. aggregated level vectors (:mod:`repro.core.aggregate`, Def. 8) ->
3. centroid angle ranges bootstrapped from HTML markup
   (:mod:`repro.core.bootstrap`, :mod:`repro.core.centroids`,
   Defs. 11-13) ->
4. contrastive Siamese refinement (:mod:`repro.core.contrastive`,
   Fig. 4) ->
5. angle-based row/column classification with depth
   (:mod:`repro.core.classifier`, Algorithm 1).

:class:`~repro.core.pipeline.MetadataPipeline` wires the stages into the
public ``fit(corpus)`` / ``classify(table)`` API.

The package imports none of its submodules; import each name from the
module that defines it, so a classify process loads only the stages it
runs.
"""
