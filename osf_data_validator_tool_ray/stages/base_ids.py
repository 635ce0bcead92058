"""Stable check IDs (see checks/base.py docstring for the reference map)."""

SCHEMA_COLUMN_100 = "SCHEMA-COLUMN-100"      # unexpected / type-drifted column
SCHEMA_COLUMN_101 = "SCHEMA-COLUMN-101"      # missing expected column
ENUM_DOMAIN_100 = "ENUM-DOMAIN-100"
CROSS_DOMAIN_100 = "CROSS-DOMAIN-100"
DATATYPE_FACET_100 = "DATATYPE-FACET-100"    # strict physical-type mismatch
DATATYPE_FACET_101 = "DATATYPE-FACET-101"    # lexical / facet violation
SPEC_COMPLETENESS_100 = "SPEC-COMPLETENESS-100"
REF_EXISTENCE_100 = "REF-EXISTENCE-100"
CARD_MAX_100 = "CARD-MAX-100"
CARD_MIN_100 = "CARD-MIN-100"
CARD_MIN_102 = "CARD-MIN-102"                # zero-edge (key absent entirely)
CARD_EXACT_100 = "CARD-EXACT-100"
SOME_100 = "SOME-100"
ONLY_100 = "ONLY-100"
DECODE_100 = "DECODE-100"                    # payload fails decode
DECODE_101 = "DECODE-101"                    # decoded stats contradict metadata
DRIFT_100 = "DRIFT-100"                      # KS/PSI distribution drift
RECONCILE_100 = "RECONCILE-100"              # cross-table aggregate mismatch
SEQ_ORDER_100 = "SEQ-ORDER-100"              # timestamp regression in sequence order
DRIFT_102 = "DRIFT-102"                      # exact two-slice KS drift
