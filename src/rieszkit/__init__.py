"""rieszkit: exact symbolic calculus for regular operators between
concretely representable vector lattices, with machine-checkable
certificates for order-convergence and positivity claims."""
